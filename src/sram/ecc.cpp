#include "sram/ecc.hpp"

#include <array>

namespace vboost::sram {

namespace {

/**
 * Codeword layout: positions 1..71 hold the 64 data bits in order,
 * skipping the seven power-of-two positions, which hold Hamming check
 * bits 0..6; check bit 7 is the overall parity of the 71-bit codeword.
 */
constexpr std::array<std::uint8_t, 64>
dataPositions()
{
    std::array<std::uint8_t, 64> pos{};
    int bit = 0;
    for (int p = 1; bit < 64; ++p) {
        if ((p & (p - 1)) != 0)
            pos[static_cast<std::size_t>(bit++)] =
                static_cast<std::uint8_t>(p);
    }
    return pos;
}

constexpr std::array<std::uint8_t, 64> kDataPos = dataPositions();

/** Parity of the low 8 bits of v. */
constexpr unsigned
parity8(unsigned v)
{
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return v & 1u;
}

/**
 * The check byte is GF(2)-linear in the data word: the Hamming bits
 * are the XOR of the positions of the set data bits, and the overall
 * parity is parity(data) ^ parity(Hamming bits). So encode(data) is
 * the XOR of encode(byte k placed in lane k) over the eight bytes,
 * and one table row per byte lane holds those 256 partial codes.
 */
constexpr std::array<std::array<std::uint8_t, 256>, 8>
encodeTables()
{
    std::array<std::array<std::uint8_t, 256>, 8> t{};
    for (std::size_t lane = 0; lane < 8; ++lane) {
        for (unsigned byte = 0; byte < 256; ++byte) {
            unsigned syndrome = 0;
            unsigned data_parity = 0;
            for (unsigned j = 0; j < 8; ++j) {
                if ((byte >> j) & 1u) {
                    syndrome ^= kDataPos[lane * 8 + j];
                    data_parity ^= 1u;
                }
            }
            t[lane][byte] = static_cast<std::uint8_t>(
                syndrome | ((data_parity ^ parity8(syndrome)) << 7));
        }
    }
    return t;
}

constexpr std::array<std::array<std::uint8_t, 256>, 8> kEncode =
    encodeTables();

/** Data bit at codeword position s (1..127), or kNoData for check
 *  positions and positions beyond the 71-bit codeword. */
constexpr std::uint8_t kNoData = 0xff;

constexpr std::array<std::uint8_t, 128>
positionToDataBit()
{
    std::array<std::uint8_t, 128> bit{};
    for (auto &b : bit)
        b = kNoData;
    for (std::size_t i = 0; i < 64; ++i)
        bit[kDataPos[i]] = static_cast<std::uint8_t>(i);
    return bit;
}

constexpr std::array<std::uint8_t, 128> kDataBitAt = positionToDataBit();

} // namespace

std::uint8_t
SecdedCodec::encode(std::uint64_t data)
{
    std::uint8_t check = 0;
    for (std::size_t lane = 0; lane < 8; ++lane)
        check ^= kEncode[lane][(data >> (8 * lane)) & 0xff];
    return check;
}

EccDecodeResult
SecdedCodec::decode(std::uint64_t data, std::uint8_t check)
{
    // The low 7 bits of encode(data) ^ check are the syndrome of the
    // received codeword; the parity of all 8 bits is the parity of
    // the whole 72-bit codeword (even when intact).
    const unsigned diff = encode(data) ^ check;
    const unsigned syndrome = diff & 0x7fu;
    const bool odd = parity8(diff) != 0;

    EccDecodeResult result;
    result.data = data;
    if (syndrome == 0 && !odd) {
        result.outcome = EccOutcome::Clean;
    } else if (odd) {
        // Odd number of errors; assume one and correct it. A syndrome
        // of 0, a check position or a position past the codeword
        // leaves the data bits as read.
        const std::uint8_t bit = kDataBitAt[syndrome];
        if (bit != kNoData)
            result.data ^= 1ull << bit;
        result.outcome = EccOutcome::Corrected;
    } else {
        // Syndrome non-zero with even parity: double error detected.
        result.outcome = EccOutcome::DetectedUncorrectable;
    }
    return result;
}

} // namespace vboost::sram

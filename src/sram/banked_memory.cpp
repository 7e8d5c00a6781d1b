#include "sram/banked_memory.hpp"

#include "common/logging.hpp"

namespace vboost::sram {

BankedMemory::BankedMemory(std::string name, int num_banks,
                           const circuit::BoosterDesign &design,
                           const circuit::TechnologyParams &tech,
                           const FailureRateModel &failure,
                           std::uint64_t cell_base_offset)
    : name_(std::move(name)), cellBase_(cell_base_offset)
{
    if (num_banks < 1)
        fatal("BankedMemory ", name_, ": at least one bank required");
    if (cell_base_offset % SramBank::kBits != 0) {
        fatal("BankedMemory ", name_, ": cell base offset must be a ",
              "multiple of the bank size (", SramBank::kBits, " bits)");
    }
    const int base_bank =
        static_cast<int>(cell_base_offset / SramBank::kBits);
    banks_.reserve(static_cast<std::size_t>(num_banks));
    for (int i = 0; i < num_banks; ++i)
        banks_.emplace_back(base_bank + i, design, tech, failure, num_banks);
}

std::uint32_t
BankedMemory::words() const
{
    return static_cast<std::uint32_t>(banks_.size()) * SramBank::kWords;
}

int
BankedMemory::bankOf(std::uint32_t addr) const
{
    if (addr >= words())
        fatal("BankedMemory ", name_, ": address ", addr,
              " out of range [0,", words(), ")");
    return static_cast<int>(addr / SramBank::kWords);
}

void
BankedMemory::setBoostConfig(int bank, std::uint32_t bits)
{
    this->bank(bank).setBoostConfig(bits);
}

void
BankedMemory::setBoostLevel(int bank, int level)
{
    this->bank(bank).setBoostLevel(level);
}

void
BankedMemory::setAllBoostLevels(int level)
{
    for (auto &b : banks_)
        b.setBoostLevel(level);
}

int
BankedMemory::boostLevel(int bank) const
{
    return this->bank(bank).boostLevel();
}

void
BankedMemory::write(std::uint32_t addr, std::uint64_t data, Volt vdd)
{
    const int b = bankOf(addr);
    banks_[static_cast<std::size_t>(b)].write(addr % SramBank::kWords, data,
                                              vdd);
}

std::uint64_t
BankedMemory::read(std::uint32_t addr, Volt vdd, const VulnerabilityMap &map,
                   Rng &rng)
{
    const int b = bankOf(addr);
    return banks_[static_cast<std::size_t>(b)].read(addr % SramBank::kWords,
                                                    vdd, map, rng);
}

SramBank::RawRead
BankedMemory::readRaw(std::uint32_t addr, Volt vdd,
                      const VulnerabilityMap &map,
                      std::uint64_t check_region)
{
    const int b = bankOf(addr);
    return banks_[static_cast<std::size_t>(b)].readRaw(
        addr % SramBank::kWords, vdd, map, bankCheckBase(b, check_region));
}

const SramBank::OperatingPoint &
BankedMemory::accessPoint(int bank, Volt vdd, const VulnerabilityMap &map,
                          std::uint64_t check_region)
{
    return this->bank(bank).accessPoint(vdd, map,
                                        bankCheckBase(bank, check_region));
}

std::uint64_t
BankedMemory::peek(std::uint32_t addr) const
{
    const int b = bankOf(addr);
    return banks_[static_cast<std::size_t>(b)].peek(addr % SramBank::kWords);
}

void
BankedMemory::writeWords16(std::uint32_t elem16,
                           const std::vector<std::int16_t> &values, Volt vdd)
{
    // Read-modify-write whole 64-bit words; partial first/last words
    // keep their other lanes.
    std::uint32_t i = 0;
    while (i < values.size()) {
        const std::uint32_t e = elem16 + i;
        const std::uint32_t addr = e / 4;
        std::uint64_t word = peek(addr);
        while (i < values.size() && (elem16 + i) / 4 == addr) {
            const std::uint32_t lane = (elem16 + i) % 4;
            const std::uint64_t mask = 0xffffull << (16 * lane);
            const auto v = static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(values[i]));
            word = (word & ~mask) | (v << (16 * lane));
            ++i;
        }
        write(addr, word, vdd);
    }
}

std::vector<std::int16_t>
BankedMemory::readWords16(std::uint32_t elem16, std::uint32_t count,
                          Volt vdd, const VulnerabilityMap &map, Rng &rng)
{
    std::vector<std::int16_t> out;
    out.reserve(count);
    std::uint32_t i = 0;
    while (i < count) {
        const std::uint32_t e = elem16 + i;
        const std::uint32_t addr = e / 4;
        const std::uint64_t word = read(addr, vdd, map, rng);
        while (i < count && (elem16 + i) / 4 == addr) {
            const std::uint32_t lane = (elem16 + i) % 4;
            out.push_back(static_cast<std::int16_t>(
                static_cast<std::uint16_t>(word >> (16 * lane))));
            ++i;
        }
    }
    return out;
}

Watt
BankedMemory::leakagePower(Volt vdd) const
{
    Watt p{0.0};
    for (const auto &b : banks_)
        p += b.leakagePower(vdd);
    return p;
}

Area
BankedMemory::boosterArea() const
{
    Area a{0.0};
    for (const auto &b : banks_)
        a += b.boosterArea();
    return a;
}

const BankCounters &
BankedMemory::bankCounters(int bank) const
{
    return this->bank(bank).counters();
}

BankCounters
BankedMemory::totalCounters() const
{
    BankCounters total;
    for (const auto &b : banks_) {
        const auto &c = b.counters();
        total.reads += c.reads;
        total.writes += c.writes;
        total.boostEvents += c.boostEvents;
        total.accessEnergy += c.accessEnergy;
        total.boostEnergy += c.boostEnergy;
    }
    return total;
}

void
BankedMemory::resetCounters()
{
    for (auto &b : banks_)
        b.resetCounters();
}

void
BankedMemory::setFlipProb(double p)
{
    for (auto &b : banks_)
        b.setFlipProb(p);
}

SramBank &
BankedMemory::bank(int i)
{
    if (i < 0 || i >= banks())
        fatal("BankedMemory ", name_, ": bank ", i, " out of range");
    return banks_[static_cast<std::size_t>(i)];
}

const SramBank &
BankedMemory::bank(int i) const
{
    if (i < 0 || i >= banks())
        fatal("BankedMemory ", name_, ": bank ", i, " out of range");
    return banks_[static_cast<std::size_t>(i)];
}

std::uint64_t
BankedMemory::cellIndex(std::uint32_t addr) const
{
    const int b = bankOf(addr);
    return banks_[static_cast<std::size_t>(b)].cellIndex(
        addr % SramBank::kWords);
}

} // namespace vboost::sram

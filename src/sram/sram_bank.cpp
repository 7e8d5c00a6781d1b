#include "sram/sram_bank.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/repeated_add.hpp"

namespace vboost::sram {

namespace {

/** Memory-side load the booster drives: two macro arrays + parasitics. */
Farad
bankLoadCap(const circuit::TechnologyParams &tech)
{
    return tech.macroArrayCap * SramBank::kMacros + tech.fixedParasiticCap;
}

} // namespace

SramBank::SramBank(int bank_id, const circuit::BoosterDesign &design,
                   const circuit::TechnologyParams &tech,
                   const FailureRateModel &failure, int num_banks_in_memory)
    : bankId_(bank_id),
      // One booster column per macro, ganged per bank under one BIC.
      booster_(design.scaled(kMacros), bankLoadCap(tech), tech),
      bic_(design.levels()),
      energy_(tech),
      failure_(failure),
      numBanksInMemory_(num_banks_in_memory),
      words_(kWords, 0)
{
    if (bank_id < 0)
        fatal("SramBank: negative bank id");
    if (num_banks_in_memory < 1)
        fatal("SramBank: memory must contain at least one bank");
}

void
SramBank::setBoostConfig(std::uint32_t bits)
{
    bic_.setConfig(bits);
}

void
SramBank::setBoostLevel(int level)
{
    bic_.setLevel(level);
}

Volt
SramBank::effectiveVoltage(Volt vdd) const
{
    return booster_.boostedVoltage(vdd, bic_.enabledLevel());
}

double
SramBank::failProbAt(Volt vdd) const
{
    return failure_.rate(effectiveVoltage(vdd));
}

void
SramBank::checkAddr(std::uint32_t addr)
{
    if (addr >= kWords)
        fatal("SramBank: address ", addr, " out of range [0,", kWords, ")");
}

SramBank::OperatingPoint &
SramBank::memoEntry(Volt vdd, int level)
{
    for (OperatingPoint &p : points_) {
        if (p.vdd == vdd.value() && p.level == level)
            return p;
    }
    if (points_.size() == kMaxOperatingPoints)
        points_.clear();
    OperatingPoint p;
    p.vdd = vdd.value();
    p.level = level;
    p.vddv = booster_.boostedVoltage(vdd, level);
    p.accessEnergy = energy_.sramAccessEnergy(p.vddv, numBanksInMemory_);
    if (level > 0)
        p.boostEnergy = booster_.boostEventEnergy(vdd, level);
    p.failProb = failure_.rate(p.vddv);
    points_.push_back(p);
    return points_.back();
}

const SramBank::OperatingPoint &
SramBank::accessPoint(Volt vdd, const VulnerabilityMap &map,
                      std::uint64_t check_base)
{
    OperatingPoint &p = memoEntry(vdd, bic_.enabledLevel());
    if (p.failProb <= 0.0)
        return p;
    if (check_base != masksCheckBase_ || !(map.key() == masksMap_)) {
        for (OperatingPoint &q : points_)
            q.masks.reset();
        masksMap_ = map.key();
        masksCheckBase_ = check_base;
    }
    if (p.masks)
        return p;
    // Points of one fail probability (another vdd boosted to the same
    // Vddv) fail the same cells.
    for (const OperatingPoint &q : points_) {
        if (q.masks && q.failProb == p.failProb) {
            p.masks = q.masks;
            return p;
        }
    }
    p.masks = std::make_shared<const WordFaultMasks>(
        map, cellIndex(0), check_base, kWords, p.failProb);
    ++maskPacks_;
    return p;
}

void
SramBank::chargeAccess(const OperatingPoint &p)
{
    counters_.accessEnergy += p.accessEnergy;
    if (p.level > 0) {
        counters_.boostEnergy += p.boostEnergy;
        ++counters_.boostEvents;
    }
}

void
SramBank::stageClean(std::uint32_t addr, const std::uint64_t *data,
                     std::uint32_t n, const OperatingPoint &p)
{
    if (n > kWords || addr > kWords - n)
        fatal("SramBank: span [", addr, ",", addr + n, ") out of range [0,",
              kWords, ")");
    std::copy(data, data + n, words_.begin() + addr);
    // A write then a read per word, each one chargeAccess(p): 2n adds
    // of the same value to each sum, which repeatedAdd() lands bit for
    // bit.
    const auto charge = [n](Joule sum, Joule each) {
        return Joule(repeatedAdd(sum.value(), each.value(), 2ull * n));
    };
    counters_.accessEnergy = charge(counters_.accessEnergy, p.accessEnergy);
    if (p.level > 0) {
        counters_.boostEnergy = charge(counters_.boostEnergy, p.boostEnergy);
        counters_.boostEvents += 2ull * n;
    }
    counters_.writes += n;
    counters_.reads += n;
}

SramBank::RawRead
SramBank::writeReadRaw(std::uint32_t addr, std::uint64_t data,
                       const OperatingPoint &p)
{
    checkAddr(addr);
    words_[addr] = data;
    chargeAccess(p);
    ++counters_.writes;
    return readAt(addr, p);
}

void
SramBank::write(std::uint32_t addr, std::uint64_t data, Volt vdd)
{
    checkAddr(addr);
    words_[addr] = data;
    chargeAccess(memoEntry(vdd, bic_.enabledLevel()));
    ++counters_.writes;
}

std::uint64_t
SramBank::read(std::uint32_t addr, Volt vdd, const VulnerabilityMap &map,
               Rng &rng)
{
    RawRead r = readRaw(addr, vdd, map);
    if (r.flipProb > 0.0) {
        std::uint8_t no_check = 0;
        flipMasked(r.data, no_check, r.mask, r.flipProb, rng);
    }
    return r.data;
}

SramBank::RawRead
SramBank::readRaw(std::uint32_t addr, Volt vdd, const VulnerabilityMap &map,
                  std::uint64_t check_base)
{
    checkAddr(addr);
    return readAt(addr, accessPoint(vdd, map, check_base));
}

SramBank::RawRead
SramBank::readAt(std::uint32_t addr, const OperatingPoint &p)
{
    chargeAccess(p);
    ++counters_.reads;
    RawRead r;
    r.data = words_[addr];
    r.flipProb = flipProb_;
    if (p.masks)
        r.mask = p.masks->at(addr);
    return r;
}

std::uint64_t
SramBank::peek(std::uint32_t addr) const
{
    checkAddr(addr);
    return words_[addr];
}

Watt
SramBank::leakagePower(Volt vdd) const
{
    // SRAMs idle at the unboosted supply: boosting happens only inside
    // access cycles, so leakage is evaluated at Vdd (the key leakage
    // advantage over a dual-rail design holding the SRAM at Vddv).
    return energy_.sramLeakage(vdd, kMacros) + booster_.leakagePower(vdd);
}

std::uint64_t
SramBank::cellIndex(std::uint32_t addr) const
{
    checkAddr(addr);
    return static_cast<std::uint64_t>(bankId_) * kBits +
           static_cast<std::uint64_t>(addr) * kWordBits;
}

void
SramBank::setFlipProb(double p)
{
    if (p < 0.0 || p > 1.0)
        fatal("SramBank::setFlipProb: p must be in [0,1], got ", p);
    flipProb_ = p;
}

} // namespace vboost::sram

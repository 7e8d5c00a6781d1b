#include "circuit/booster.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace vboost::circuit {

BoosterDesign::BoosterDesign(std::vector<BoosterCellSpec> cells)
    : cells_(std::move(cells))
{
    if (cells_.empty())
        fatal("BoosterDesign: at least one booster cell required");
    for (const auto &c : cells_) {
        if (c.numInverters < 0 || c.mimCap < Farad(0.0))
            fatal("BoosterDesign: negative cell parameters");
        if (c.numInverters == 0 && c.mimCap == Farad(0.0))
            fatal("BoosterDesign: empty booster cell");
    }
}

BoosterDesign
BoosterDesign::standardConfig()
{
    using namespace vboost::literals;
    return uniform(4, 64, 10.0_pF);
}

BoosterDesign
BoosterDesign::uniform(int levels, int inv_per_cell, Farad mim)
{
    if (levels <= 0)
        fatal("BoosterDesign::uniform: levels must be > 0, got ", levels);
    std::vector<BoosterCellSpec> cells(
        static_cast<std::size_t>(levels),
        BoosterCellSpec{inv_per_cell, mim});
    return BoosterDesign(std::move(cells));
}

BoosterDesign
BoosterDesign::inverterOnly(int total_inverters, int levels)
{
    if (levels <= 0 || total_inverters <= 0 || total_inverters % levels != 0) {
        fatal("BoosterDesign::inverterOnly: inverters (", total_inverters,
              ") must divide evenly into levels (", levels, ")");
    }
    return uniform(levels, total_inverters / levels, Farad(0.0));
}

BoosterDesign
BoosterDesign::scaled(int copies) const
{
    if (copies < 1)
        fatal("BoosterDesign::scaled: copies must be >= 1, got ", copies);
    std::vector<BoosterCellSpec> cells;
    cells.reserve(cells_.size());
    for (const auto &c : cells_) {
        cells.push_back(BoosterCellSpec{c.numInverters * copies,
                                        c.mimCap * copies});
    }
    return BoosterDesign(std::move(cells));
}

Farad
BoosterDesign::boostCap(int level, const TechnologyParams &tech) const
{
    if (level < 0 || level > levels())
        fatal("BoosterDesign::boostCap: level ", level, " out of [0,",
              levels(), "]");
    Farad cb(0.0);
    for (int i = 0; i < level; ++i) {
        const auto &c = cells_[static_cast<std::size_t>(i)];
        cb += c.mimCap + tech.invCoupleCap * c.numInverters;
    }
    return cb;
}

int
BoosterDesign::enabledInverters(int level) const
{
    if (level < 0 || level > levels())
        fatal("BoosterDesign::enabledInverters: level out of range");
    int n = 0;
    for (int i = 0; i < level; ++i)
        n += cells_[static_cast<std::size_t>(i)].numInverters;
    return n;
}

int
BoosterDesign::totalInverters() const
{
    return enabledInverters(levels());
}

Farad
BoosterDesign::enabledMim(int level) const
{
    if (level < 0 || level > levels())
        fatal("BoosterDesign::enabledMim: level out of range");
    Farad mim(0.0);
    for (int i = 0; i < level; ++i)
        mim += cells_[static_cast<std::size_t>(i)].mimCap;
    return mim;
}

Farad
BoosterDesign::parasiticLoad(const TechnologyParams &tech) const
{
    return tech.invParasiticCap * totalInverters();
}

Area
BoosterDesign::area(const TechnologyParams &tech) const
{
    // One shared MIM buffer chain serves the whole column (sized for
    // drive strength, not MIM value), so it is counted once per design
    // that uses a MIM capacitor at all.
    Area a(0.0);
    bool has_mim = false;
    for (const auto &c : cells_) {
        a += tech.invArea * c.numInverters;
        has_mim = has_mim || c.mimCap > Farad(0.0);
    }
    if (has_mim)
        a += tech.mimBufferArea;
    return a;
}

BoosterBank::BoosterBank(BoosterDesign design, Farad load_cap,
                         const TechnologyParams &tech)
    : design_(std::move(design)), loadCap_(load_cap), tech_(tech)
{
    if (loadCap_ <= Farad(0.0))
        fatal("BoosterBank: load capacitance must be positive");
}

Volt
BoosterBank::boostDelta(Volt vdd, int level) const
{
    if (level < 0 || level > levels())
        fatal("BoosterBank::boostDelta: level ", level, " out of [0,",
              levels(), "]");
    if (level == 0)
        return Volt(0.0);
    const Farad cb = design_.boostCap(level, tech_);
    const Farad total = cb + loadCap_ + design_.parasiticLoad(tech_);
    // Paper Eq. (1): Vb = Vdd * Cb / (Cb + Cmem + Cp), derated by the
    // drive-swing efficiency at low supplies.
    const double eff = std::max(
        0.0, 1.0 - std::exp(-(vdd.value() - tech_.boostDriveOffset.value()) /
                            tech_.boostDriveScale.value()));
    return Volt(vdd.value() * (cb / total) * eff);
}

Volt
BoosterBank::boostedVoltage(Volt vdd, int level) const
{
    return vdd + boostDelta(vdd, level);
}

Joule
BoosterBank::boostEventEnergy(Volt vdd, int level) const
{
    if (level < 0 || level > levels())
        fatal("BoosterBank::boostEventEnergy: level out of range");
    if (level == 0)
        return Joule(0.0);

    // Fully dissipated: input/buffer switching of enabled inverters and
    // the enabled cells' MIM buffer chains.
    Farad drive = tech_.invDriveCap * design_.enabledInverters(level);
    for (int i = 0; i < level; ++i) {
        if (design_.cells()[static_cast<std::size_t>(i)].mimCap > Farad(0.0))
            drive += tech_.mimBufferDriveCap;
    }
    Joule e = switchingEnergy(drive, vdd);

    // Resistive fraction of the charge shuffled onto the memory rail;
    // the rest is recovered when Vddv relaxes back to Vdd.
    const Farad cb = design_.boostCap(level, tech_);
    const Volt vb = boostDelta(vdd, level);
    e += Joule(tech_.chargeShareLossFactor * cb.value() * vb.value() *
               vdd.value());
    return e;
}

Watt
BoosterBank::leakagePower(Volt vdd) const
{
    const double scale = std::exp(
        (vdd.value() - tech_.leakageVref.value()) / tech_.leakageSlope.value());
    // Reference leakage is specified for the standard (4-cell, 256-inv)
    // column; scale with inverter count for other designs.
    const double size_scale =
        static_cast<double>(design_.totalInverters()) / 256.0;
    return tech_.boosterLeakPerMacroAtVref * (scale * size_scale);
}

Area
BoosterBank::area() const
{
    return design_.area(tech_) + tech_.bicArea;
}

} // namespace vboost::circuit

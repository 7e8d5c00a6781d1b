#include "energy/supply_config.hpp"

#include "common/logging.hpp"

namespace vboost::energy {

namespace {

Farad
bankLoad(const circuit::TechnologyParams &tech)
{
    // One bank = two 4 KB macros on the boosted rail.
    return tech.macroArrayCap * 2 + tech.fixedParasiticCap;
}

} // namespace

SupplyConfigurator::SupplyConfigurator(
    const circuit::TechnologyParams &tech,
    const circuit::BoosterDesign &design, int num_banks)
    // One booster column per macro; a bank spans two macros.
    : energy_(tech), booster_(design.scaled(2), bankLoad(tech), tech),
      ldo_(),
      numBanks_(num_banks), numMacros_(2 * num_banks)
{
    if (num_banks < 1)
        fatal("SupplyConfigurator: at least one bank required");
}

Volt
SupplyConfigurator::boostedVoltage(Volt vdd, int level) const
{
    return booster_.boostedVoltage(vdd, level);
}

EnergyBreakdown
SupplyConfigurator::singleSupplyDynamic(const Workload &w, Volt v) const
{
    EnergyBreakdown e;
    e.sram = energy_.sramAccessEnergy(v, numBanks_) *
             static_cast<double>(w.sramAccesses);
    e.pe = energy_.peOpEnergy(v) * static_cast<double>(w.computeOps);
    return e;
}

EnergyBreakdown
SupplyConfigurator::boostedDynamic(const Workload &w, Volt vdd,
                                   int level) const
{
    return boostedDynamicMulti({{w.sramAccesses, level}}, w.computeOps,
                               vdd);
}

EnergyBreakdown
SupplyConfigurator::boostedDynamicMulti(
    const std::vector<std::pair<std::uint64_t, int>> &accesses_by_level,
    std::uint64_t compute_ops, Volt vdd) const
{
    EnergyBreakdown e;
    for (const auto &[accesses, level] : accesses_by_level) {
        const Volt vddv = booster_.boostedVoltage(vdd, level);
        e.sram += energy_.sramAccessEnergy(vddv, numBanks_) *
                  static_cast<double>(accesses);
        e.booster += booster_.boostEventEnergy(vdd, level) *
                     static_cast<double>(accesses);
    }
    e.pe = energy_.peOpEnergy(vdd) * static_cast<double>(compute_ops);
    return e;
}

EnergyBreakdown
SupplyConfigurator::dualSupplyDynamic(const Workload &w, Volt vh,
                                      Volt vl) const
{
    EnergyBreakdown e;
    e.sram = energy_.sramAccessEnergy(vh, numBanks_) *
             static_cast<double>(w.sramAccesses);
    e.pe = energy_.peOpEnergy(vl) * static_cast<double>(w.computeOps);
    // Eq. (6): the logic energy is delivered through the LDO; the
    // difference between input and load energy is dissipated in it.
    const Joule pe_at_input = ldo_.inputEnergy(e.pe, vl, vh);
    e.ldoLoss = pe_at_input - e.pe;
    return e;
}

Joule
SupplyConfigurator::singleSupplyLeakagePerCycle(Volt v, Hertz f) const
{
    const Watt p = energy_.sramLeakage(v, numMacros_) + energy_.peLeakage(v);
    return energy_.leakagePerCycle(p, f);
}

Joule
SupplyConfigurator::boostedLeakagePerCycle(Volt vdd, Hertz f) const
{
    // Eq. (4): LE = LE(SRAM, Vdd) + LE(BC, Vdd) + LE(PE, Vdd): boosting
    // is confined to access cycles, so everything idles at Vdd.
    const Watt p = energy_.sramLeakage(vdd, numMacros_) +
                   booster_.leakagePower(vdd) *
                       static_cast<double>(numBanks_) +
                   energy_.peLeakage(vdd);
    return energy_.leakagePerCycle(p, f);
}

Joule
SupplyConfigurator::dualSupplyLeakagePerCycle(Volt vh, Volt vl,
                                              Hertz f) const
{
    // Eq. (7): LE = LE(SRAM, Vh) + LE(PE, Vl) / eta.
    const Watt sram = energy_.sramLeakage(vh, numMacros_);
    const Watt pe = ldo_.inputPower(energy_.peLeakage(vl), vl, vh);
    return energy_.leakagePerCycle(sram + pe, f);
}

} // namespace vboost::energy

/**
 * @file
 * Per-die adaptive boosting with canary cells: every manufactured die
 * has a different V_min (bitcell variability), so a fixed boost level
 * either wastes energy on good dies or fails bad ones. This example
 * samples Monte-Carlo dies, lets the CanaryController pick each die's
 * minimal safe boost level at a very low supply, and runs chip
 * inference at the chosen level to confirm accuracy — closing the
 * runtime-control loop the paper's related work [22] motivates.
 *
 * Build & run:  ./build/examples/canary_adaptive_chip
 */

#include <iostream>

#include "accel/dante.hpp"
#include "core/canary.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "energy/supply_config.hpp"

using namespace vboost;

namespace {

dnn::Network
makeNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(784, 64, rng, "fc1");
    net.addLayer<dnn::Relu>("relu");
    net.addLayer<dnn::Dense>(64, 10, rng, "fc2");
    return net;
}

} // namespace

int
main()
{
    // Train once; deploy the same model to every die.
    const auto train_set = dnn::makeSyntheticMnist(2000, 1);
    const auto test_set = dnn::makeSyntheticMnist(200, 2);
    auto net = makeNet(7);
    dnn::SgdTrainer trainer;
    Rng rng(3);
    trainer.train(net, train_set, rng);
    dnn::clipParameters(net, 0.5f);

    const auto ctx = core::SimContext::standard();
    core::CanaryController controller(ctx, 16, 64, 0.03_V);
    energy::SupplyConfigurator sc(ctx.tech, ctx.design, 16);
    const Volt vdd{0.38};

    std::cout << "adaptive boosting at Vdd = " << vdd.value()
              << " V, canary margin "
              << controller.margin().value() * 1e3 << " mV\n\n";
    std::cout << "die  chosen-level  Vddv(V)  array-BER  accuracy\n";

    double energy_adaptive = 0.0, energy_static = 0.0;
    auto scratch = net.clone(); // receives each die's staged weights
    for (std::uint64_t die = 0; die < 6; ++die) {
        const sram::VulnerabilityMap map(500 + die, 0);
        const auto level = controller.chooseLevel(vdd, map);
        if (!level) {
            std::cout << " " << die << "   supply too low for this die\n";
            continue;
        }

        accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                              ctx.failure);
        Rng read_rng(die + 1);
        const auto logits = chip.runInference(
            net, scratch, test_set.images, vdd, {*level, *level}, *level,
            map, read_rng);
        std::size_t correct = 0;
        for (int i = 0; i < logits.dim(0); ++i) {
            int best = 0;
            for (int j = 1; j < logits.dim(1); ++j) {
                if (logits.at(i, j) > logits.at(i, best))
                    best = j;
            }
            correct +=
                best == test_set.labels[static_cast<std::size_t>(i)];
        }
        std::cout << " " << die << "       " << *level << "        "
                  << sc.boostedVoltage(vdd, *level).value() << "   "
                  << controller.arrayFailProbAt(vdd, *level) << "   "
                  << static_cast<double>(correct) /
                         static_cast<double>(test_set.size())
                  << "\n";

        // Compare the per-inference energy against always-Vddv4.
        const energy::Workload w{255000, 340000};
        energy_adaptive +=
            sc.boostedDynamic(w, vdd, *level).total().value();
        energy_static += sc.boostedDynamic(w, vdd, 4).total().value();
    }
    std::cout << "\nadaptive vs always-max-boost energy: "
              << (1.0 - energy_adaptive / energy_static) * 100.0
              << "% saved\n";
    return 0;
}

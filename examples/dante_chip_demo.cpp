/**
 * @file
 * Dante chip demo: run fully connected inference *through* the
 * behavioural chip model — int16 weights staged tile-by-tile into the
 * boosted 128 KB weight memory, activations round-tripping the 16 KB
 * input memory, per-bank boost levels programmed with the
 * set_boost_config instruction — and watch accuracy, energy and
 * instruction counters as the boost level changes at a very low
 * supply voltage.
 *
 * Build & run:  ./build/examples/dante_chip_demo
 */

#include <iostream>

#include "accel/dante.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"

using namespace vboost;

namespace {

dnn::Network
makeNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(784, 96, rng, "fc1");
    net.addLayer<dnn::Relu>("relu1");
    net.addLayer<dnn::Dense>(96, 10, rng, "fc2");
    return net;
}

} // namespace

int
main()
{
    // Train a small model for the demo.
    const auto train_set = dnn::makeSyntheticMnist(2000, 1);
    const auto test_set = dnn::makeSyntheticMnist(256, 2);
    auto net = makeNet(7);
    dnn::SgdTrainer trainer;
    Rng rng(3);
    trainer.train(net, train_set, rng);
    dnn::clipParameters(net, 0.5f);
    std::cout << "float accuracy: "
              << dnn::SgdTrainer::evaluate(net, test_set, 0) << "\n\n";

    // Build the chip exactly as taped out (Table 1).
    const auto ctx = core::SimContext::standard();
    accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                          ctx.failure);
    std::cout << "chip: " << chip.config().totalMacros()
              << " macros, booster area "
              << chip.boosterArea().value() / 1e6 << " mm^2\n\n";

    const Volt vdd{0.40};
    std::cout << "running at Vdd = " << vdd.value() << " V, "
              << chip.config().frequencyAt(vdd).value() / 1e6
              << " MHz\n\n";
    std::cout << "level  Vddv(V)  accuracy  dyn energy (uJ)  "
                 "boost events  set_boost_config\n";
    auto scratch = net.clone(); // receives each run's staged weights
    for (int level = 0; level <= 4; ++level) {
        chip.resetCounters();
        const sram::VulnerabilityMap map(42, 0);
        Rng read_rng(level + 1);
        const auto logits = chip.runInference(
            net, scratch, test_set.images, vdd, {level, level}, level, map,
            read_rng);

        std::size_t correct = 0;
        for (int i = 0; i < logits.dim(0); ++i) {
            int best = 0;
            for (int j = 1; j < logits.dim(1); ++j) {
                if (logits.at(i, j) > logits.at(i, best))
                    best = j;
            }
            correct += best ==
                       test_set.labels[static_cast<std::size_t>(i)];
        }
        const auto &wmem = chip.weightMemory();
        std::cout << "  " << level << "     "
                  << wmem.bank(0).effectiveVoltage(vdd).value() << "    "
                  << static_cast<double>(correct) /
                         static_cast<double>(test_set.size())
                  << "      " << chip.dynamicEnergy().value() * 1e6
                  << "          "
                  << wmem.totalCounters().boostEvents << "        "
                  << chip.counters().setBoostConfigInstrs << "\n";
    }

    std::cout << "\nleakage at " << vdd.value()
              << " V: " << chip.leakagePower(vdd).value() * 1e6
              << " uW (idle SRAMs stay at Vdd regardless of level)\n";
    return 0;
}

/**
 * @file
 * MNIST resilience study: train a fully connected network on the
 * synthetic MNIST task with the built-in trainer, quantize it for
 * int16 deployment, then measure Monte-Carlo inference accuracy
 * across supply voltage with and without SRAM supply boosting —
 * the workflow behind the paper's Fig. 2 and Fig. 13(c), end to end
 * in one small program.
 *
 * Build & run:  ./build/examples/mnist_resilience
 */

#include <iostream>

#include "core/context.hpp"
#include "core/tradeoff.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/experiment.hpp"
#include "sram/failure_model.hpp"

using namespace vboost;

namespace {

/** A compact FC topology that trains in a couple of seconds. */
dnn::Network
makeNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(784, 128, rng, "fc1");
    net.addLayer<dnn::Relu>("relu1");
    net.addLayer<dnn::Dense>(128, 64, rng, "fc2");
    net.addLayer<dnn::Relu>("relu2");
    net.addLayer<dnn::Dense>(64, 10, rng, "fc3");
    return net;
}

} // namespace

int
main()
{
    // 1. Data and training.
    const auto train_set = dnn::makeSyntheticMnist(3000, 1);
    const auto test_set = dnn::makeSyntheticMnist(800, 2);
    auto net = makeNet(7);

    dnn::TrainConfig tcfg;
    tcfg.epochs = 5;
    dnn::SgdTrainer trainer(tcfg);
    Rng rng(3);
    const auto epochs = trainer.train(net, train_set, rng);
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        std::cout << "epoch " << e + 1 << "/" << epochs.size()
                  << ": loss=" << epochs[e].meanLoss
                  << " train_acc=" << epochs[e].trainAccuracy << "\n";
    }

    // 2. Deployment: clip to the accelerator's Q-format range.
    dnn::clipParameters(net, 0.5f);
    std::cout << "float test accuracy: "
              << dnn::SgdTrainer::evaluate(net, test_set, 0) << "\n\n";

    // 3. Monte-Carlo fault injection across voltage.
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failures(ctx.failure);
    core::TradeoffExplorer explorer(ctx, 16);

    fi::ExperimentConfig cfg;
    cfg.numMaps = 10;
    cfg.maxTestSamples = 400;
    cfg.numThreads = 0; // all hardware threads; results are identical
    fi::FaultInjectionRunner runner(net, test_set, cfg);

    std::cout << "Vdd(V)  BER(unboosted)  acc(unboosted)  acc(Vddv4)\n";
    for (double v = 0.34; v <= 0.501; v += 0.02) {
        const Volt vdd{v};
        const auto base = runner.runAtVoltage(
            vdd, failures, fi::InjectionSpec::allWeights());
        const Volt vddv = explorer.boostedVoltage(vdd, 4);
        const auto boosted = runner.runAtVoltage(
            vddv, failures, fi::InjectionSpec::allWeights());
        std::cout << "  " << v << "      " << base.failProb << "      "
                  << base.meanAccuracy << "        "
                  << boosted.meanAccuracy << "\n";
    }

    // 4. Which layers are fragile? (the paper's Fig. 2 selective
    //    injection, at the 0.44 V anchor rate)
    const double f = failures.rate(0.44_V);
    std::cout << "\nselective injection at BER " << f << ":\n";
    std::cout << "  all weights: "
              << runner.run(f, fi::InjectionSpec::allWeights())
                     .meanAccuracy
              << "\n  inputs only: "
              << runner.run(f, fi::InjectionSpec::inputsOnly())
                     .meanAccuracy
              << "\n  first layer: "
              << runner.run(f, fi::InjectionSpec::singleLayer(0))
                     .meanAccuracy
              << "\n  last layer : "
              << runner.run(f, fi::InjectionSpec::singleLayer(2))
                     .meanAccuracy
              << "\n";
    return 0;
}

/**
 * @file
 * Iso-accuracy boost selection for a convolutional network: trains a
 * compact conv net on the synthetic CIFAR task, samples its
 * accuracy-vs-failure-rate curve once, builds an Eyeriss
 * Row-Stationary activity model for its layers, and then uses the
 * TradeoffExplorer to pick — per supply voltage — the cheapest boost
 * level that still meets an accuracy target, comparing the resulting
 * energy against the single-supply and dual-supply alternatives.
 * This is the paper's Fig. 15 methodology on a user-defined network.
 *
 * Build & run:  ./build/examples/alexnet_iso_accuracy
 */

#include <iostream>

#include "accel/dataflow.hpp"
#include "core/context.hpp"
#include "core/tradeoff.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/accuracy_curve.hpp"
#include "sram/failure_model.hpp"

using namespace vboost;

namespace {

/** Compact 3-conv-layer network, ~15 s of training on one core. */
dnn::Network
makeNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Conv2d>(3, 8, 5, 2, rng, "conv1");
    net.addLayer<dnn::Relu>("relu1");
    net.addLayer<dnn::MaxPool2d>("pool1");
    net.addLayer<dnn::Conv2d>(8, 16, 3, 1, rng, "conv2");
    net.addLayer<dnn::Relu>("relu2");
    net.addLayer<dnn::MaxPool2d>("pool2");
    net.addLayer<dnn::Conv2d>(16, 16, 3, 1, rng, "conv3");
    net.addLayer<dnn::Relu>("relu3");
    net.addLayer<dnn::MaxPool2d>("pool3");
    net.addLayer<dnn::Flatten>("flatten");
    net.addLayer<dnn::Dense>(16 * 4 * 4, 10, rng, "fc");
    return net;
}

/** Conv geometry of makeNet(), for the RS activity model. */
std::vector<dnn::ConvLayerDims>
convDims()
{
    return {{3, 8, 5, 32, 32, 32, 32},
            {8, 16, 3, 16, 16, 16, 16},
            {16, 16, 3, 8, 8, 8, 8}};
}

} // namespace

int
main()
{
    // Train and deploy.
    const auto train_set = dnn::makeSyntheticCifar(1200, 1);
    const auto test_set = dnn::makeSyntheticCifar(300, 2);
    auto net = makeNet(7);
    dnn::TrainConfig tcfg;
    tcfg.epochs = 3;
    tcfg.learningRate = 0.05;
    dnn::SgdTrainer trainer(tcfg);
    Rng rng(3);
    const auto epochs = trainer.train(net, train_set, rng);
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        std::cout << "epoch " << e + 1 << "/" << epochs.size()
                  << ": loss=" << epochs[e].meanLoss
                  << " train_acc=" << epochs[e].trainAccuracy << "\n";
    }
    dnn::clipParameters(net, 0.5f);

    // Accuracy-vs-failure-rate curve (sampled once, then interpolated).
    fi::ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 300;
    fi::FaultInjectionRunner runner(net, test_set, cfg);
    const auto curve = fi::AccuracyCurve::sample(
        runner, fi::InjectionSpec::allWeights(), 1e-5, 0.3, 7);
    const double target = curve.faultFree() - 0.02;
    std::cout << "fault-free accuracy " << curve.faultFree()
              << ", target " << target << "\n\n";

    // Row-Stationary global-buffer activity for this network.
    const accel::EyerissRsModel rs;
    const auto total =
        accel::totalActivity(rs.networkActivity(convDims()));
    const energy::Workload workload{total.totalAccesses(), total.macs};
    std::cout << "workload: " << total.macs << " MACs, "
              << total.totalAccesses() << " buffer accesses (ratio "
              << total.accessRatio() * 100 << "%)\n\n";

    // Iso-accuracy operating points.
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failures(ctx.failure);
    core::TradeoffExplorer explorer(ctx, 16);
    const auto oracle = [&](Volt vddv) {
        return curve.at(failures.rate(vddv));
    };

    std::cout
        << "Vdd(V)  level  Vddv(V)  accuracy  boost(nJ)  dual(nJ)\n";
    for (double v = 0.34; v <= 0.47; v += 0.02) {
        const auto op = explorer.isoAccuracyPoint(Volt(v), target,
                                                  oracle, workload);
        if (!op) {
            std::cout << "  " << v << "   target unreachable\n";
            continue;
        }
        std::cout << "  " << v << "     " << op->level << "     "
                  << op->vddv.value() << "    " << op->accuracy
                  << "      " << op->boostedEnergy.value() * 1e9
                  << "     " << op->dualEnergy.value() * 1e9 << "\n";
    }
    return 0;
}

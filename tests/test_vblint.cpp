/**
 * @file
 * Tests for the vblint static analyzer (DESIGN.md §10). Synthetic
 * snippets exercise each rule's positive and negative space through
 * the exact production code path (analyzeSource/analyzeAll from
 * vblint_core): the per-file rules VB001, VB002, VB004 and VB005, the
 * project rules VB006–VB009 (include-graph layering, RNG-stream
 * discipline, fingerprint hygiene, shared-mutable pool captures) with
 * their symbol-index-driven fixtures, the lexer's edge cases (raw
 * strings, digit separators, spliced comments, directive-trailing
 * waivers), the inline-suppression machinery, and the JSON report
 * shape. Two self-checks run the analyzer over the real src/ tree:
 * one asserts it is clean (zero build-failing diagnostics — what the
 * `vblint` ctest entry and the CI job enforce), one injects a
 * layering back-edge and asserts it fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "include_graph.hpp"
#include "report.hpp"
#include "rules.hpp"

namespace vboost::vblint {
namespace {

/** Diagnostics of `fa` that match `rule`, any status. */
std::vector<Diagnostic>
withRule(const FileAnalysis &fa, Rule rule)
{
    std::vector<Diagnostic> out;
    for (const auto &d : fa.diagnostics)
        if (d.rule == rule)
            out.push_back(d);
    return out;
}

int
activeCount(const FileAnalysis &fa)
{
    int n = 0;
    for (const auto &d : fa.diagnostics)
        if (d.status == DiagStatus::Active)
            ++n;
    return n;
}

/** Diagnostics of a whole-repo report that match `rule`, any status. */
std::vector<Diagnostic>
reportWithRule(const RepoReport &report, Rule rule)
{
    std::vector<Diagnostic> out;
    for (const auto &d : report.diagnostics)
        if (d.rule == rule)
            out.push_back(d);
    return out;
}

// ---------------------------------------------------------------- VB001

TEST(VblintVB001, FlagsRandCallInModelCode)
{
    const auto fa = analyzeSource("src/fi/x.cpp",
                                  "void f() {\n"
                                  "    int a = rand();\n"
                                  "    (void)a;\n"
                                  "}\n");
    const auto diags = withRule(fa, Rule::VB001);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
    EXPECT_NE(diags[0].message.find("rand"), std::string::npos);
}

TEST(VblintVB001, FlagsRandomDeviceType)
{
    const auto fa = analyzeSource(
        "src/core/x.cpp", "void f() { std::random_device rd; (void)rd; }\n");
    ASSERT_EQ(withRule(fa, Rule::VB001).size(), 1u);
}

TEST(VblintVB001, FlagsWallClockTypes)
{
    const auto fa = analyzeSource(
        "src/serve/x.cpp",
        "void f() { auto t = std::chrono::system_clock::now(); (void)t; }\n");
    ASSERT_EQ(withRule(fa, Rule::VB001).size(), 1u);
}

TEST(VblintVB001, BenchAndToolLayersAreExempt)
{
    // Wall-clock timing is the whole point of bench/; VB001 scopes to
    // model code under src/ only.
    const std::string snippet = "void f() { int a = rand(); (void)a; }\n";
    EXPECT_TRUE(withRule(analyzeSource("bench/x.cpp", snippet), Rule::VB001)
                    .empty());
    EXPECT_TRUE(withRule(analyzeSource("tools/x.cpp", snippet), Rule::VB001)
                    .empty());
    EXPECT_EQ(withRule(analyzeSource("src/fi/x.cpp", snippet), Rule::VB001)
                  .size(),
              1u);
}

TEST(VblintVB001, MemberCallNamedTimeIsNotFlagged)
{
    // Only free calls are banned; obj.time() / ptr->time() are member
    // functions the repo owns.
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "int g(const Stats &s, Stats *p) { return s.time() + p->time(); }\n");
    EXPECT_TRUE(withRule(fa, Rule::VB001).empty());
}

TEST(VblintVB001, AllowAnnotationSuppresses)
{
    const auto fa = analyzeSource(
        "src/common/x.cpp",
        "// vblint: allow(VB001, feeds only a log rate limiter)\n"
        "void f() { long t = time(nullptr); (void)t; }\n");
    const auto diags = withRule(fa, Rule::VB001);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
    EXPECT_EQ(activeCount(fa), 0);
}

// ---------------------------------------------------------------- VB002

TEST(VblintVB002, FlagsRangeForOverUnorderedMap)
{
    const auto fa =
        analyzeSource("src/serve/x.cpp",
                      "#include <unordered_map>\n"
                      "int f(const std::unordered_map<int, int> &m) {\n"
                      "    int s = 0;\n"
                      "    for (const auto &kv : m)\n"
                      "        s += kv.second;\n"
                      "    return s;\n"
                      "}\n");
    const auto diags = withRule(fa, Rule::VB002);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 4);
}

TEST(VblintVB002, OrderedOkAnnotationSuppresses)
{
    const auto fa =
        analyzeSource("src/serve/x.cpp",
                      "int f(const std::unordered_map<int, int> &m) {\n"
                      "    int s = 0;\n"
                      "    // vblint: ordered-ok(commutative integer count)\n"
                      "    for (const auto &kv : m)\n"
                      "        s += kv.second;\n"
                      "    return s;\n"
                      "}\n");
    const auto diags = withRule(fa, Rule::VB002);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
}

TEST(VblintVB002, OrderedMapIterationIsFine)
{
    const auto fa = analyzeSource("src/serve/x.cpp",
                                  "int f(const std::map<int, int> &m) {\n"
                                  "    int s = 0;\n"
                                  "    for (const auto &kv : m)\n"
                                  "        s += kv.second;\n"
                                  "    return s;\n"
                                  "}\n");
    EXPECT_TRUE(withRule(fa, Rule::VB002).empty());
}

TEST(VblintVB002, SiblingHeaderSeedsTheTypeEnvironment)
{
    // The member is declared unordered in the header; the loop lives
    // in the .cpp. The paired-header environment must connect them.
    const std::string header =
        "#pragma once\n"
        "#include <unordered_map>\n"
        "class Registry {\n"
        "    std::unordered_map<int, int> slots_;\n"
        "    int total() const;\n"
        "};\n";
    const auto fa = analyzeSource("src/serve/registry.cpp",
                                  "int Registry::total() const {\n"
                                  "    int s = 0;\n"
                                  "    for (const auto &kv : slots_)\n"
                                  "        s += kv.second;\n"
                                  "    return s;\n"
                                  "}\n",
                                  header);
    ASSERT_EQ(withRule(fa, Rule::VB002).size(), 1u);
}

TEST(VblintVB002, ClusterTierUnorderedIterationIsFlagged)
{
    // Routing and aggregation in src/cluster/ run on §7 serial paths;
    // an unordered_map walk there would leak hash order into routes.
    const auto fa = analyzeSource(
        "src/cluster/x.cpp",
        "#include <unordered_map>\n"
        "int f(const std::unordered_map<int, int> &m) {\n"
        "    int s = 0;\n"
        "    for (const auto &kv : m)\n"
        "        s += kv.second;\n"
        "    return s;\n"
        "}\n");
    EXPECT_EQ(withRule(fa, Rule::VB002).size(), 1u);
}

TEST(VblintVB002, RecoveryTierUnorderedIterationIsFlagged)
{
    // Recovery digests and obs exports iterate label maps; an
    // unordered_map walk there would leak hash order into the
    // fingerprints the determinism ctest compares.
    const auto fa = analyzeSource(
        "src/recovery/x.cpp",
        "#include <unordered_map>\n"
        "int f(const std::unordered_map<int, int> &m) {\n"
        "    int s = 0;\n"
        "    for (const auto &kv : m)\n"
        "        s += kv.second;\n"
        "    return s;\n"
        "}\n");
    EXPECT_EQ(withRule(fa, Rule::VB002).size(), 1u);
}

TEST(VblintVB002, ObservabilityLayerUnorderedIterationIsFlagged)
{
    // The registry promises key-ordered iteration; an unordered_map
    // walk in src/obs/ would silently break the fingerprint contract.
    const auto fa = analyzeSource(
        "src/obs/x.cpp",
        "#include <unordered_map>\n"
        "int f(const std::unordered_map<int, int> &m) {\n"
        "    int s = 0;\n"
        "    for (const auto &kv : m)\n"
        "        s += kv.second;\n"
        "    return s;\n"
        "}\n");
    const auto diags = withRule(fa, Rule::VB002);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 4);
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
}

// ---------------------------------------------------------------- VB004

TEST(VblintVB004, FlagsMutableNamespaceScopeVariable)
{
    const auto fa =
        analyzeSource("src/core/x.cpp", "int counter = 0;\n");
    const auto diags = withRule(fa, Rule::VB004);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 1);
}

TEST(VblintVB004, FlagsFunctionLocalStatic)
{
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "int next() { static int calls = 0; return ++calls; }\n");
    ASSERT_EQ(withRule(fa, Rule::VB004).size(), 1u);
}

TEST(VblintVB004, ConstantsAndFunctionsAreFine)
{
    const auto fa = analyzeSource("src/core/x.cpp",
                                  "const int kLimit = 3;\n"
                                  "constexpr double kEps = 1e-9;\n"
                                  "static constexpr int kBanks = 8;\n"
                                  "int add(int a, int b) { return a + b; }\n");
    EXPECT_TRUE(withRule(fa, Rule::VB004).empty());
}

TEST(VblintVB004, TestsAndBenchesMayHoldState)
{
    const auto fa =
        analyzeSource("tests/x.cpp", "int counter = 0;\n");
    EXPECT_TRUE(withRule(fa, Rule::VB004).empty());
}

// ---------------------------------------------------------------- VB005

TEST(VblintVB005, FlagsHeaderWithoutGuard)
{
    const auto fa = analyzeSource("src/core/x.hpp",
                                  "inline int one() { return 1; }\n");
    ASSERT_EQ(withRule(fa, Rule::VB005).size(), 1u);
}

TEST(VblintVB005, AcceptsPragmaOnce)
{
    const auto fa = analyzeSource("src/core/x.hpp",
                                  "#pragma once\n"
                                  "inline int one() { return 1; }\n");
    EXPECT_TRUE(withRule(fa, Rule::VB005).empty());
}

TEST(VblintVB005, AcceptsIfndefDefinePair)
{
    // The repo convention: classic guards (see any header in src/).
    const auto fa = analyzeSource("src/core/x.hpp",
                                  "#ifndef VBOOST_CORE_X_HPP\n"
                                  "#define VBOOST_CORE_X_HPP\n"
                                  "inline int one() { return 1; }\n"
                                  "#endif\n");
    EXPECT_TRUE(withRule(fa, Rule::VB005).empty());
}

TEST(VblintVB005, FlagsUsingNamespaceInHeader)
{
    const auto fa = analyzeSource("src/core/x.hpp",
                                  "#pragma once\n"
                                  "using namespace std;\n");
    const auto diags = withRule(fa, Rule::VB005);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
}

TEST(VblintVB005, UsingNamespaceInCppIsFine)
{
    const auto fa = analyzeSource(
        "src/core/x.cpp", "using namespace std::chrono_literals;\n");
    EXPECT_TRUE(withRule(fa, Rule::VB005).empty());
}

// ------------------------------------------- project-rule fixtures

/** Stream-class fixture: discovered through its `split` member, never
 *  by name — the VB007 allowlist comes from the symbol index. */
SourceInput
rngFixture()
{
    return {"src/common/rng.hpp",
            "#ifndef VBOOST_TEST_RNG_HPP\n"
            "#define VBOOST_TEST_RNG_HPP\n"
            "#include <cstdint>\n"
            "class Rng {\n"
            "  public:\n"
            "    explicit Rng(std::uint64_t seed);\n"
            "    Rng split(std::uint64_t stream) const;\n"
            "};\n"
            "#endif\n",
            ""};
}

/** Hash-helper fixture: a free function returning uint64_t from
 *  scalar-only parameters is blessed for seed derivation. */
SourceInput
hashFixture()
{
    return {"src/sram/cell_hash.hpp",
            "#ifndef VBOOST_TEST_CELL_HASH_HPP\n"
            "#define VBOOST_TEST_CELL_HASH_HPP\n"
            "#include <cstdint>\n"
            "std::uint64_t mix64(std::uint64_t a, std::uint64_t b);\n"
            "#endif\n",
            ""};
}

/** Registry fixture: discovered through its excludeFromFingerprint
 *  member; `counter` becomes a registration method because its
 *  return type names a class declared in the same file. */
SourceInput
registryFixture()
{
    return {"src/obs/metrics.hpp",
            "#ifndef VBOOST_TEST_METRICS_HPP\n"
            "#define VBOOST_TEST_METRICS_HPP\n"
            "#include <string>\n"
            "class Counter {\n"
            "  public:\n"
            "    void add(double v);\n"
            "};\n"
            "class MetricsRegistry {\n"
            "  public:\n"
            "    Counter counter(const std::string &name);\n"
            "    void excludeFromFingerprint(const std::string &name);\n"
            "};\n"
            "#endif\n",
            ""};
}

/** Pool fixture: discovered through its std::thread member; public
 *  members and stem-sibling free functions taking std::function
 *  become pool entry points. */
SourceInput
poolFixture()
{
    return {"src/common/thread_pool.hpp",
            "#ifndef VBOOST_TEST_POOL_HPP\n"
            "#define VBOOST_TEST_POOL_HPP\n"
            "#include <functional>\n"
            "#include <thread>\n"
            "#include <vector>\n"
            "class ThreadPool {\n"
            "  public:\n"
            "    void submit(std::function<void()> fn);\n"
            "  private:\n"
            "    std::vector<std::thread> workers_;\n"
            "};\n"
            "void parallelFor(std::size_t n, int num_threads,\n"
            "                 const std::function<void(std::size_t, "
            "unsigned)> &body);\n"
            "#endif\n",
            ""};
}

/** Wall-clock-coupled helper: its file calls time(), so its non-void
 *  free functions propagate taint into VB008 consumers. */
SourceInput
telemetryFixture()
{
    return {"src/serve/telemetry.hpp",
            "#ifndef VBOOST_TEST_TELEMETRY_HPP\n"
            "#define VBOOST_TEST_TELEMETRY_HPP\n"
            "inline double\n"
            "nowSeconds()\n"
            "{\n"
            "    // vblint: allow(VB001, operator dashboard clock)\n"
            "    return static_cast<double>(time(nullptr));\n"
            "}\n"
            "#endif\n",
            ""};
}

// ---------------------------------------------------------------- VB006

TEST(VblintVB006, FlagsLayeringBackEdge)
{
    const auto fa = analyzeSource("src/common/x.cpp",
                                  "#include \"serve/server.hpp\"\n"
                                  "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 1);
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
    EXPECT_NE(diags[0].message.find("back-edge"), std::string::npos);
}

TEST(VblintVB006, ForwardAndSameModuleIncludesAreClean)
{
    EXPECT_TRUE(withRule(analyzeSource("src/serve/x.cpp",
                                       "#include \"common/rng.hpp\"\n"
                                       "int f() { return 1; }\n"),
                         Rule::VB006)
                    .empty());
    EXPECT_TRUE(withRule(analyzeSource("src/serve/x.cpp",
                                       "#include \"serve/batching.hpp\"\n"
                                       "int f() { return 1; }\n"),
                         Rule::VB006)
                    .empty());
}

TEST(VblintVB006, RecoveryTierSitsBetweenFiAndServe)
{
    // DESIGN.md §15: recovery consumes fi's injection machinery and
    // feeds serve's planner, so the DAG must admit recovery -> fi and
    // serve -> recovery while rejecting the reverse edges.
    EXPECT_EQ(moduleTier("fi"), 5);
    EXPECT_EQ(moduleTier("recovery"), 6);
    EXPECT_EQ(moduleTier("serve"), 7);
    EXPECT_EQ(moduleTier("cluster"), 8);

    EXPECT_TRUE(withRule(analyzeSource("src/recovery/x.cpp",
                                       "#include \"fi/injector.hpp\"\n"
                                       "int f() { return 1; }\n"),
                         Rule::VB006)
                    .empty());
    EXPECT_TRUE(withRule(analyzeSource(
                             "src/serve/x.cpp",
                             "#include \"recovery/recovery.hpp\"\n"
                             "int f() { return 1; }\n"),
                         Rule::VB006)
                    .empty());

    const auto back = withRule(
        analyzeSource("src/fi/x.cpp",
                      "#include \"recovery/recovery.hpp\"\n"
                      "int f() { return 1; }\n"),
        Rule::VB006);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_NE(back[0].message.find("back-edge"), std::string::npos);

    const auto up = withRule(
        analyzeSource("src/recovery/x.cpp",
                      "#include \"serve/planner.hpp\"\n"
                      "int f() { return 1; }\n"),
        Rule::VB006);
    ASSERT_EQ(up.size(), 1u);
    EXPECT_NE(up[0].message.find("back-edge"), std::string::npos);
}

TEST(VblintVB006, FlagsSameTierCrossModuleInclude)
{
    // circuit and obs share a tier; neither may depend on the other.
    const auto fa = analyzeSource("src/circuit/x.cpp",
                                  "#include \"obs/metrics.hpp\"\n"
                                  "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("same-tier"), std::string::npos);
}

TEST(VblintVB006, FlagsComputedInclude)
{
    const auto fa = analyzeSource("src/core/x.cpp",
                                  "#include VBOOST_CONFIG_HEADER\n"
                                  "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("computed"), std::string::npos);
}

TEST(VblintVB006, AngledIncludesAreExempt)
{
    const auto fa = analyzeSource("src/core/x.cpp",
                                  "#include <vector>\n"
                                  "#include <unordered_map>\n"
                                  "int f() { return 1; }\n");
    EXPECT_TRUE(withRule(fa, Rule::VB006).empty());
}

TEST(VblintVB006, FlagsQuotedIncludeOutsideModuleTree)
{
    const auto fa = analyzeSource("src/core/x.cpp",
                                  "#include \"x_detail.hpp\"\n"
                                  "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("does not land"), std::string::npos);
}

TEST(VblintVB006, FlagsModuleMissingFromTierTable)
{
    const auto fa = analyzeSource("src/newmod/x.cpp",
                                  "#include \"common/rng.hpp\"\n"
                                  "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("tier table"), std::string::npos);
}

TEST(VblintVB006, DetectsIncludeCycle)
{
    std::vector<SourceInput> inputs{
        {"src/serve/a.hpp",
         "#ifndef VBOOST_TEST_A_HPP\n"
         "#define VBOOST_TEST_A_HPP\n"
         "#include \"serve/b.hpp\"\n"
         "#endif\n",
         ""},
        {"src/serve/b.hpp",
         "#ifndef VBOOST_TEST_B_HPP\n"
         "#define VBOOST_TEST_B_HPP\n"
         "#include \"serve/a.hpp\"\n"
         "#endif\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("include cycle"), std::string::npos);
}

TEST(VblintVB006, TrailingWaiverOnIncludeLineSuppresses)
{
    const auto fa = analyzeSource(
        "src/common/x.cpp",
        "#include \"serve/server.hpp\" "
        "// vblint: allow(VB006, legacy shim until the split lands)\n"
        "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
    EXPECT_EQ(activeCount(fa), 0);
}

TEST(VblintVB006, ToolsAndBenchLayersAreExempt)
{
    // Layering binds src/<module>/ files only; harness code may
    // reach into any layer.
    const auto fa = analyzeSource("tools/x.cpp",
                                  "#include \"serve/server.hpp\"\n"
                                  "int f() { return 1; }\n");
    EXPECT_TRUE(withRule(fa, Rule::VB006).empty());
}

// ---------------------------------------------------------------- VB007

TEST(VblintVB007, FlagsStdEngine)
{
    const auto fa = analyzeSource(
        "src/fi/x.cpp", "void f() { std::mt19937 gen(42); (void)gen; }\n");
    const auto diags = withRule(fa, Rule::VB007);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
    EXPECT_NE(diags[0].message.find("mt19937"), std::string::npos);
}

TEST(VblintVB007, FlagsStdDistribution)
{
    const auto fa = analyzeSource(
        "src/fi/x.cpp",
        "void f() {\n"
        "    std::uniform_real_distribution<double> d(0.0, 1.0);\n"
        "    (void)d;\n"
        "}\n");
    ASSERT_EQ(withRule(fa, Rule::VB007).size(), 1u);
}

TEST(VblintVB007, FlagsAdHocSeedArithmetic)
{
    std::vector<SourceInput> inputs{
        rngFixture(),
        {"src/fi/x.cpp",
         "#include \"common/rng.hpp\"\n"
         "Rng forJob(std::uint64_t seed, std::uint64_t j) {\n"
         "    return Rng(seed * 31 + j);\n"
         "}\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB007);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/fi/x.cpp");
    EXPECT_NE(diags[0].message.find("ad-hoc seed arithmetic"),
              std::string::npos);
}

TEST(VblintVB007, HashHelperArithmeticIsBlessed)
{
    // Arithmetic inside a discovered hash helper's argument list is
    // that helper's job; the construction stays clean.
    std::vector<SourceInput> inputs{
        rngFixture(), hashFixture(),
        {"src/fi/x.cpp",
         "#include \"common/rng.hpp\"\n"
         "#include \"sram/cell_hash.hpp\"\n"
         "Rng forCell(std::uint64_t seed, std::uint64_t row) {\n"
         "    return Rng(mix64(seed + 1, row));\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB007).empty());
}

TEST(VblintVB007, SplitCounterIsClean)
{
    std::vector<SourceInput> inputs{
        rngFixture(),
        {"src/fi/x.cpp",
         "#include \"common/rng.hpp\"\n"
         "Rng forJob(const Rng &root, std::uint64_t j) {\n"
         "    return root.split(j);\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB007).empty());
}

TEST(VblintVB007, ProviderFileIsExempt)
{
    // The stream class's own files may host std engines; the
    // exemption keys off the symbol index, not a hardcoded path list.
    std::vector<SourceInput> inputs{
        rngFixture(),
        {"src/common/rng.cpp",
         "#include \"common/rng.hpp\"\n"
         "void seedHelper() { std::mt19937 gen(7); (void)gen; }\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB007).empty());
}

TEST(VblintVB007, AllowAnnotationSuppresses)
{
    const auto fa = analyzeSource(
        "src/fi/x.cpp",
        "// vblint: allow(VB007, reference oracle for the stream tests)\n"
        "void f() { std::mt19937 gen(42); (void)gen; }\n");
    const auto diags = withRule(fa, Rule::VB007);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
}

// ---------------------------------------------------------------- VB008

TEST(VblintVB008, FlagsWallClockMetricWithoutExclusion)
{
    std::vector<SourceInput> inputs{
        registryFixture(), telemetryFixture(),
        {"src/serve/x.cpp",
         "#include \"obs/metrics.hpp\"\n"
         "#include \"serve/telemetry.hpp\"\n"
         "void setup(MetricsRegistry &reg) {\n"
         "    const double t0 = nowSeconds();\n"
         "    (void)t0;\n"
         "    reg.counter(\"serve.elapsed_seconds\");\n"
         "}\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB008);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/serve/x.cpp");
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
    EXPECT_NE(diags[0].message.find("serve.elapsed_seconds"),
              std::string::npos);
    EXPECT_NE(diags[0].message.find("nowSeconds"), std::string::npos);
}

TEST(VblintVB008, ExcludeFromFingerprintClearsTheFinding)
{
    std::vector<SourceInput> inputs{
        registryFixture(), telemetryFixture(),
        {"src/serve/x.cpp",
         "#include \"obs/metrics.hpp\"\n"
         "#include \"serve/telemetry.hpp\"\n"
         "void setup(MetricsRegistry &reg) {\n"
         "    const double t0 = nowSeconds();\n"
         "    (void)t0;\n"
         "    reg.counter(\"serve.elapsed_seconds\");\n"
         "    reg.excludeFromFingerprint(\"serve.elapsed_seconds\");\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB008).empty());
}

TEST(VblintVB008, CleanFunctionsMayRegisterMetrics)
{
    // No wall-clock taint in scope: registration is fine without an
    // exclusion.
    std::vector<SourceInput> inputs{
        registryFixture(),
        {"src/serve/x.cpp",
         "#include \"obs/metrics.hpp\"\n"
         "void setup(MetricsRegistry &reg) {\n"
         "    reg.counter(\"serve.batches_formed\");\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB008).empty());
}

TEST(VblintVB008, FlagsRegistrationInsidePoolLambda)
{
    std::vector<SourceInput> inputs{
        registryFixture(), poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "#include \"obs/metrics.hpp\"\n"
         "void run(ThreadPool &pool, MetricsRegistry &reg) {\n"
         "    pool.submit([&reg] { reg.counter(\"fi.inner\"); });\n"
         "}\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB008);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("inside a thread-pool lambda"),
              std::string::npos);
}

TEST(VblintVB008, AllowAnnotationSuppresses)
{
    std::vector<SourceInput> inputs{
        registryFixture(), telemetryFixture(),
        {"src/serve/x.cpp",
         "#include \"obs/metrics.hpp\"\n"
         "#include \"serve/telemetry.hpp\"\n"
         "void setup(MetricsRegistry &reg) {\n"
         "    const double t0 = nowSeconds();\n"
         "    (void)t0;\n"
         "    // vblint: allow(VB008, excluded at the call site in main)\n"
         "    reg.counter(\"serve.elapsed_seconds\");\n"
         "}\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB008);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
}

// ---------------------------------------------------------------- VB009

TEST(VblintVB009, FlagsDefaultRefCapture)
{
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "void run(ThreadPool &pool, double *out) {\n"
         "    pool.submit([&] { out[0] = 1.0; });\n"
         "}\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB009);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
    EXPECT_NE(diags[0].message.find("[&]"), std::string::npos);
}

TEST(VblintVB009, FreeParallelForIsAnEntryPoint)
{
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "#include <vector>\n"
         "void run(std::vector<double> &out) {\n"
         "    parallelFor(out.size(), 4,\n"
         "                [&](std::size_t j, unsigned slot) {\n"
         "                    out[j] = static_cast<double>(slot);\n"
         "                });\n"
         "}\n",
         ""}};
    ASSERT_EQ(
        reportWithRule(analyzeAll(inputs), Rule::VB009).size(), 1u);
}

TEST(VblintVB009, FlagsUnguardedNamedRefCapture)
{
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "void run(ThreadPool &pool) {\n"
         "    double total = 0.0;\n"
         "    pool.submit([&total] { total += 1.0; });\n"
         "}\n",
         ""}};
    const auto diags =
        reportWithRule(analyzeAll(inputs), Rule::VB009);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("total"), std::string::npos);
}

TEST(VblintVB009, AtomicGuardedCaptureIsClean)
{
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "#include <atomic>\n"
         "void run(ThreadPool &pool) {\n"
         "    std::atomic<long> hits{0};\n"
         "    pool.submit([&hits] { ++hits; });\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB009).empty());
}

TEST(VblintVB009, ValueCaptureIsClean)
{
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "void run(ThreadPool &pool) {\n"
         "    const double scale = 2.0;\n"
         "    pool.submit([scale] { (void)scale; });\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB009).empty());
}

TEST(VblintVB009, NonPoolCallIsClean)
{
    // [&] into a plain callback-taking function is not a pool hand-off.
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "#include <functional>\n"
         "void apply(const std::function<void()> &fn);\n"
         "void run(double *out) {\n"
         "    apply([&] { out[0] = 1.0; });\n"
         "}\n",
         ""}};
    EXPECT_TRUE(
        reportWithRule(analyzeAll(inputs), Rule::VB009).empty());
}

TEST(VblintVB009, AllowAnnotationSuppresses)
{
    std::vector<SourceInput> inputs{
        poolFixture(),
        {"src/fi/x.cpp",
         "#include \"common/thread_pool.hpp\"\n"
         "void run(ThreadPool &pool, double *out) {\n"
         "    pool.submit(\n"
         "        // vblint: allow(VB009, job writes a disjoint slot)\n"
         "        [&] { out[0] = 1.0; });\n"
         "}\n",
         ""}};
    const auto report = analyzeAll(inputs);
    const auto diags = reportWithRule(report, Rule::VB009);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
}

// ----------------------------------------------------------------- lexer

TEST(VblintLexer, RawStringContentIsOpaque)
{
    // rand()/time() inside raw strings are text, not calls; a raw
    // string with a delimiter must terminate at its matching )x".
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "const char *kDoc = R\"(call rand() or time(0) here)\";\n"
        "const char *kDelim = R\"x(also rand();)x\";\n"
        "int f() { return 1; }\n");
    EXPECT_TRUE(withRule(fa, Rule::VB001).empty());
}

TEST(VblintLexer, DigitSeparatorsLexAsOneNumber)
{
    // 1'000'000 must not open a character literal; if it did, the
    // rest of the file would lex as garbage and the rand() call on
    // the next line would be missed or misplaced.
    const auto fa = analyzeSource("src/core/x.cpp",
                                  "void f() {\n"
                                  "    const long n = 1'000'000; (void)n;\n"
                                  "    int a = rand(); (void)a;\n"
                                  "}\n");
    const auto diags = withRule(fa, Rule::VB001);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 3);
}

TEST(VblintLexer, SplicedLineCommentSwallowsNextLine)
{
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "void f() {\n"
        "    // a spliced comment hides the next line \\\n"
        "    int a = rand();\n"
        "    int b = rand(); (void)b;\n"
        "}\n");
    const auto diags = withRule(fa, Rule::VB001);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 4);
}

TEST(VblintLexer, AnnotationAboveDirectiveTargetsTheDirective)
{
    // An own-line waiver binds to a following #include even though
    // directives live outside the token stream.
    const auto fa = analyzeSource(
        "src/common/x.cpp",
        "// vblint: allow(VB006, bootstrap shim until the split lands)\n"
        "#include \"serve/server.hpp\"\n"
        "int f() { return 1; }\n");
    const auto diags = withRule(fa, Rule::VB006);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
}

// ------------------------------------------------- suppression machinery

TEST(VblintSuppression, OwnLineAnnotationTargetsNextCodeLine)
{
    // Blank lines and further comments between the annotation and the
    // code it waives are fine; the annotation binds to the next
    // statement, not the next physical line.
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "// vblint: allow(VB004, scratch counter for a debug build)\n"
        "\n"
        "// Regular comment in between.\n"
        "int counter = 0;\n");
    const auto diags = withRule(fa, Rule::VB004);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Suppressed);
    ASSERT_EQ(fa.suppressions.size(), 1u);
    EXPECT_TRUE(fa.suppressions[0].used);
    EXPECT_EQ(fa.suppressions[0].targetLine, 4);
}

TEST(VblintSuppression, ReasonIsRecordedInTheInventory)
{
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "// vblint: allow(VB004, scratch counter for a debug build)\n"
        "int counter = 0;\n");
    ASSERT_EQ(fa.suppressions.size(), 1u);
    EXPECT_EQ(fa.suppressions[0].rule, Rule::VB004);
    EXPECT_EQ(fa.suppressions[0].reason,
              "scratch counter for a debug build");
}

TEST(VblintSuppression, UnusedSuppressionRaisesVB900)
{
    // A waiver with nothing to waive is itself a defect: it either
    // outlived the code it covered or was pasted in the wrong place.
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "// vblint: allow(VB001, nothing nondeterministic below)\n"
        "int add(int a, int b) { return a + b; }\n");
    const auto diags = withRule(fa, Rule::VB900);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].status, DiagStatus::Active);
}

TEST(VblintSuppression, MalformedAnnotationRaisesVB901)
{
    // Unknown keywords — including retired ones — are malformed, so
    // a stale or newly written one fails the lint.
    for (const char *annotation :
         {"// vblint: frobnicate(VB001)\n", "// vblint: assoc-ok(x)\n"}) {
        const auto fa = analyzeSource(
            "src/core/x.cpp",
            std::string(annotation) +
                "int add(int a, int b) { return a + b; }\n");
        const auto diags = withRule(fa, Rule::VB901);
        ASSERT_EQ(diags.size(), 1u) << annotation;
        EXPECT_EQ(diags[0].status, DiagStatus::Active) << annotation;
    }
}

TEST(VblintSuppression, WrongRuleDoesNotSuppress)
{
    // An allow(VB002) sitting on a VB004 site must not eat the VB004
    // — and must itself be reported unused.
    const auto fa = analyzeSource(
        "src/core/x.cpp",
        "// vblint: allow(VB002, wrong rule on purpose)\n"
        "int counter = 0;\n");
    const auto vb004 = withRule(fa, Rule::VB004);
    ASSERT_EQ(vb004.size(), 1u);
    EXPECT_EQ(vb004[0].status, DiagStatus::Active);
    EXPECT_EQ(withRule(fa, Rule::VB900).size(), 1u);
}

// ------------------------------------------------------------------- JSON

TEST(VblintJson, ReportHasExpectedShape)
{
    std::vector<SourceInput> inputs{
        {"src/fi/x.cpp",
         "void f() { int a = rand(); (void)a; }\n"
         "// vblint: allow(VB004, test fixture state)\n"
         "int counter = 0;\n",
         ""}};
    const auto report = analyzeAll(inputs);
    std::ostringstream os;
    writeJson(os, report, "/repo");
    const std::string json = os.str();

    EXPECT_NE(json.find("\"tool\": \"vblint\""), std::string::npos);
    EXPECT_NE(json.find("\"formatVersion\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"root\": \"/repo\""), std::string::npos);
    EXPECT_NE(json.find("\"filesScanned\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"active\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"id\": \"VB001\""), std::string::npos);
    EXPECT_NE(json.find("\"file\": \"src/fi/x.cpp\""), std::string::npos);
    EXPECT_NE(json.find("\"suppressions\""), std::string::npos);
    EXPECT_NE(json.find("\"diagnostics\""), std::string::npos);

    // The writer must emit parseable JSON: crude but effective brace
    // balance check on the final artifact.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(VblintJson, EveryRuleHasAnExplanation)
{
    for (const Rule r : allRules()) {
        EXPECT_FALSE(ruleName(r).empty());
        EXPECT_FALSE(ruleSummary(r).empty());
        EXPECT_FALSE(ruleExplanation(r).empty());
        EXPECT_EQ(ruleFromName(ruleName(r)), r);
    }
}

// -------------------------------------------------------------- self-check

/** Mirror the CLI's file collection: every C++ source under src/,
 *  sorted, with the paired header attached to each .cpp. */
std::vector<SourceInput>
loadRealSrcTree(const std::filesystem::path &root)
{
    namespace fs = std::filesystem;
    auto slurp = [](const fs::path &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::vector<fs::path> files;
    for (const auto &entry : fs::recursive_directory_iterator(root / "src")) {
        if (!entry.is_regular_file())
            continue;
        const auto ext = entry.path().extension().string();
        if (ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h" ||
            ext == ".hh")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());

    std::vector<SourceInput> inputs;
    for (const auto &p : files) {
        SourceInput in;
        in.path = fs::relative(p, root).generic_string();
        in.content = slurp(p);
        if (p.extension() == ".cpp" || p.extension() == ".cc") {
            for (const char *hext : {".hpp", ".h"}) {
                fs::path header = p;
                header.replace_extension(hext);
                if (fs::exists(header)) {
                    in.siblingHeader = slurp(header);
                    break;
                }
            }
        }
        inputs.push_back(std::move(in));
    }
    return inputs;
}

TEST(VblintSelfCheck, SrcTreeIsClean)
{
    namespace fs = std::filesystem;
    const fs::path root = VBLINT_SOURCE_ROOT;
    ASSERT_TRUE(fs::exists(root / "src"))
        << "source root not found: " << root;

    const auto inputs = loadRealSrcTree(root);
    ASSERT_GT(inputs.size(), 50u)
        << "suspiciously few files; collection is broken";

    const auto report = analyzeAll(inputs);

    // The tier-1 invariant: no unwaived diagnostics in src/, no dead
    // or malformed suppressions (VB900/VB901 are active findings).
    // Print offenders so a failure names file and line without
    // rerunning the CLI.
    for (const auto &d : report.diagnostics)
        if (d.status == DiagStatus::Active)
            ADD_FAILURE() << d.file << ":" << d.line << ": "
                          << ruleName(d.rule) << ": " << d.message;
    EXPECT_EQ(report.activeCount(), 0);

    // Every committed waiver must carry a reason — the inventory is
    // only auditable if the "why" rides with the "where".
    for (const auto &s : report.suppressions)
        EXPECT_FALSE(s.reason.empty())
            << s.file << ":" << s.line << " waives " << ruleName(s.rule)
            << " without a reason";
}

TEST(VblintSelfCheck, InjectedBackEdgeFailsTheRealTree)
{
    // The VB006 acceptance criterion: dropping a single file with an
    // upward include into the otherwise-clean tree must flip the
    // build-failing count to nonzero.
    namespace fs = std::filesystem;
    const fs::path root = VBLINT_SOURCE_ROOT;
    ASSERT_TRUE(fs::exists(root / "src"))
        << "source root not found: " << root;

    auto inputs = loadRealSrcTree(root);
    inputs.push_back({"src/common/vblint_injected_backedge.cpp",
                      "#include \"serve/server.hpp\"\n"
                      "int injected() { return 1; }\n",
                      ""});

    const auto report = analyzeAll(inputs);
    bool found = false;
    for (const auto &d : report.diagnostics) {
        if (d.rule == Rule::VB006 && d.status == DiagStatus::Active &&
            d.file == "src/common/vblint_injected_backedge.cpp") {
            found = true;
            EXPECT_NE(d.message.find("back-edge"), std::string::npos);
        }
    }
    EXPECT_TRUE(found) << "injected common -> serve include not flagged";
    EXPECT_GE(report.activeCount(), 1);
}

} // namespace
} // namespace vboost::vblint

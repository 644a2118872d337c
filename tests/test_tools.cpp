// Tests for the flags parser, alpusim's flag validation and the machine
// report renderer.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/flags.hpp"
#include "workload/report.hpp"
#include "workload/scenarios.hpp"

namespace alpu {
namespace {

common::Flags parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  auto f = common::Flags::parse(static_cast<int>(args.size()),
                                const_cast<char**>(args.data()));
  EXPECT_TRUE(f.has_value());
  return *f;
}

TEST(Flags, EqualsForm) {
  const auto f = parse({"--length=42", "--fraction=0.5"});
  EXPECT_EQ(f.get_int("length", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("fraction", 0), 0.5);
}

TEST(Flags, SpaceForm) {
  const auto f = parse({"--mode", "alpu128", "--length", "7"});
  EXPECT_EQ(f.get("mode", ""), "alpu128");
  EXPECT_EQ(f.get_int("length", 0), 7);
}

TEST(Flags, BooleanForm) {
  // Positionals come first (the tools' convention): space-form parsing
  // is greedy, so a word after a bare flag would bind as its value.
  const auto f = parse({"scenario", "--report", "--verbose"});
  EXPECT_TRUE(f.get_bool("report"));
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("missing"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "scenario");
}

TEST(Flags, GreedySpaceFormBindsFollowingWord) {
  const auto f = parse({"--report", "scenario"});
  EXPECT_EQ(f.get("report", ""), "scenario");
  EXPECT_TRUE(f.positional().empty());
}

TEST(Flags, PositionalBeforeAndAfterFlags) {
  const auto f = parse({"run", "--x=1", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, FallbacksApply) {
  const auto f = parse({});
  EXPECT_EQ(f.get("mode", "baseline"), "baseline");
  EXPECT_EQ(f.get_int("n", 5), 5);
  EXPECT_FALSE(f.has("anything"));
}

TEST(Flags, ExplicitFalse) {
  const auto f = parse({"--report=false", "--x=0"});
  EXPECT_FALSE(f.get_bool("report", true));
  EXPECT_FALSE(f.get_bool("x", true));
}

// ---- report ------------------------------------------------------------------

/// Exit status of `alpusim <args>` (output discarded).
int alpusim(const std::string& args) {
  const std::string cmd =
      std::string(ALPUSIM_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Standard output of `alpusim <args>`.
std::string alpusim_output(const std::string& args) {
  const std::string cmd = std::string(ALPUSIM_PATH) + " " + args;
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

TEST(Alpusim, RejectsUnknownFlags) {
  // A misspelt flag used to run the defaults silently and exit 0.
  EXPECT_EQ(alpusim("chaos --rates 0.01 --bogus 3"), 2);
  EXPECT_EQ(alpusim("chaos --seeds 1 --rates 0.01"), 2);
  EXPECT_EQ(alpusim("sweep --figure 5 --quick --seu-rates 0.1"), 2);
  // A flag of another subcommand is refused too.
  EXPECT_EQ(alpusim("check --depth 1 --drop 0.1"), 2);
  EXPECT_EQ(alpusim("preposted --length 5 --jobs 2"), 2);
  EXPECT_EQ(alpusim("pingpong --threshold 5"), 2);  // builds no machine
}

TEST(Alpusim, AcceptsEachSubcommandsOwnFlags) {
  EXPECT_EQ(alpusim("chaos --drop 0 --seeds 1 --ranks 2 --per-pair 1 "
                    "--jobs 1"),
            0);
  EXPECT_EQ(alpusim("check --depth 1 --cells 2 --block 1 --impl array"), 0);
  EXPECT_EQ(alpusim("preposted --mode alpu128 --length 5 --fraction 0.5"),
            0);
  EXPECT_EQ(alpusim("fpga --cells 64 --block 8"), 0);
}

TEST(Alpusim, UnexpectedRefusesABudgetItsFloodCannotHold) {
  // Every flood message stays unexpected until the receive is posted,
  // so fewer slots (or pool bytes) than the flood needs would stall it.
  EXPECT_EQ(alpusim("unexpected --length 10 --slots 4"), 2);
  EXPECT_EQ(alpusim("unexpected --length 10 --pool-bytes 64 --bytes 32"), 2);
  EXPECT_EQ(alpusim("unexpected --length 4 --slots 4"), 0);
  EXPECT_EQ(alpusim("unexpected --length 10 --pool-bytes 320 --bytes 32"), 0);
  // The other latency scenarios run under a tiny budget.
  EXPECT_EQ(alpusim("preposted --length 10 --slots 2"), 0);
  EXPECT_EQ(alpusim("msgrate --length 10 --slots 2"), 0);
}

TEST(Alpusim, ReportShowsTheMachineTheScenarioRan) {
  // The scenario floods node 0's unexpected queue before the measured
  // receive searches it, so node 0's row counts unexpected walks.
  const std::string out = alpusim_output("unexpected --length 20 --report");
  const std::size_t nic = out.find("--- NIC ---");
  ASSERT_NE(nic, std::string::npos) << out;
  const std::size_t row = out.find("\n     0 ", nic);
  ASSERT_NE(row, std::string::npos) << out;
  std::istringstream fields(out.substr(row, out.find('\n', row + 1) - row));
  std::string node, rx, tx, posted_q, unexpected_q, posted_walks;
  std::uint64_t unexpected_walks = 0;
  fields >> node >> rx >> tx >> posted_q >> unexpected_q >> posted_walks >>
      unexpected_walks;
  EXPECT_EQ(node, "0");
  EXPECT_GT(unexpected_walks, 0u) << out;
}

TEST(Report, RendersAllSectionsForAllNodes) {
  sim::Engine engine;
  mpi::Machine machine(
      engine, workload::make_system_config(workload::NicMode::kAlpu128, 3));
  sim::ProcessPool pool(engine);
  pool.spawn([](mpi::Machine& m) -> sim::Process {
    co_await m.rank(0).send(1, 1, 64);
  }(machine));
  pool.spawn([](mpi::Machine& m) -> sim::Process {
    co_await m.rank(1).recv(0, 1, 64);
  }(machine));
  engine.run();
  ASSERT_TRUE(pool.all_done());

  const std::string report = workload::machine_report(machine);
  EXPECT_NE(report.find("--- NIC ---"), std::string::npos);
  EXPECT_NE(report.find("--- ALPU ---"), std::string::npos);
  EXPECT_NE(report.find("--- NIC memory ---"), std::string::npos);
  EXPECT_NE(report.find("--- network ---"), std::string::npos);
  EXPECT_NE(report.find("node2.unexpected"), std::string::npos);
}

TEST(Report, BaselineShowsDashesForMissingAlpus) {
  sim::Engine engine;
  mpi::Machine machine(
      engine, workload::make_system_config(workload::NicMode::kBaseline));
  const std::string report = workload::machine_report(machine);
  EXPECT_NE(report.find("node0.posted"), std::string::npos);
  // Dash cells mark absent units.
  EXPECT_NE(report.find("-"), std::string::npos);
}

}  // namespace
}  // namespace alpu

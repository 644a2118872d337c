// Figure 6 reproduction: latency vs. unexpected-message queue length.
//
// The measured latency deliberately includes the time to post the
// receive (Section V-A), and the posting overlaps the transfer of the
// latency message — so the baseline's linear search is hidden until the
// queue is long enough (the paper's crossover is near 70 entries), and
// the ALPU's advantage appears beyond it.  Each line also shows the
// cache-exhaustion knee the paper points out.
//
// Independent fresh-machine points, computed on the parallel sweep pool
// (--jobs N, default hardware_concurrency; --quick for the CI grid).
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace {

using namespace alpu;
using workload::NicMode;

struct Point {
  NicMode mode;
  std::size_t length;
};

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::parse(argc, argv);
  const bool quick = flags.has_value() && flags->get_bool("quick");
  workload::SweepOptions sweep;
  sweep.jobs = flags.has_value()
                   ? static_cast<int>(flags->get_int("jobs", 0))
                   : 0;

  const std::vector<std::size_t> lengths = workload::fig6_queue_lengths(quick);
  const std::vector<NicMode> modes = {NicMode::kBaseline, NicMode::kAlpu128,
                                      NicMode::kAlpu256};

  std::printf("=== Figure 6: latency vs unexpected queue length ===\n");
  std::printf("(0-byte payload; latency includes receive-posting time,\n"
              " overlapped with the message transfer as in the paper)\n\n");

  // One flat sweep over every (length, mode) pair; indexed back below.
  std::vector<Point> points;
  points.reserve(lengths.size() * modes.size());
  for (std::size_t len : lengths) {
    for (NicMode mode : modes) {
      points.push_back({mode, len});
    }
  }
  const std::vector<double> ns = workload::sweep_map(
      points,
      [](const Point& pt) {
        workload::UnexpectedParams p;
        p.mode = pt.mode;
        p.queue_length = pt.length;
        p.message_bytes = 0;
        return common::to_ns(workload::run_unexpected(p).latency);
      },
      sweep);

  common::TextTable t;
  t.set_header({"queue_length", "baseline (ns)", "alpu128 (ns)",
                "alpu256 (ns)"});
  std::vector<double> base_ns, a128_ns, a256_ns;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    base_ns.push_back(ns[i * 3 + 0]);
    a128_ns.push_back(ns[i * 3 + 1]);
    a256_ns.push_back(ns[i * 3 + 2]);
    t.add_row({std::to_string(lengths[i]),
               common::fmt_double(base_ns.back(), 1),
               common::fmt_double(a128_ns.back(), 1),
               common::fmt_double(a256_ns.back(), 1)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("csv_begin\nqueue_length,baseline_ns,alpu128_ns,alpu256_ns\n");
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::printf("%zu,%.1f,%.1f,%.1f\n", lengths[i], base_ns[i], a128_ns[i],
                a256_ns[i]);
  }
  std::printf("csv_end\n\n");

  // Headline checks.
  std::printf("=== headline checks (paper, Section VI-C) ===\n");
  std::printf("short-queue ALPU penalty (len 1)  : %6.1f ns (paper: a few tens of ns)\n",
              a128_ns[1] - base_ns[1]);
  std::size_t crossover = 0;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (a128_ns[i] + 1.0 < base_ns[i]) {
      crossover = lengths[i];
      break;
    }
  }
  std::printf("ALPU begins to win at queue length: %6zu    (paper ~70)\n",
              crossover);
  const double long_gain = base_ns.back() / a256_ns.back();
  std::printf("baseline/alpu256 ratio at len %zu : %6.2f x (paper: 'clear and significant')\n",
              lengths.back(), long_gain);
  return 0;
}

// Span recorder for the traced run.
//
// The benchmark wraps each call it makes into a simulator layer in a
// span: name, start, end, parent span and the repetition (trace) id.
// Spans nest strictly (the benchmark runs the simulation on one thread
// while tracing), so a span's self time is its duration minus the time
// its direct children cover, accumulated as the children close.
//
// Per-name totals are kept for every traced repetition; the full span
// records are kept in memory for the most recent repetition only and
// written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two steady-clock points.
inline double elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

enum class SpanName : std::uint8_t {
  kRep,           ///< one whole repetition
  kSetup,         ///< machine build + spawn + pre-post
  kMachineBuild,  ///< mpi::Machine constructor
  kSpawn,         ///< sim::ProcessPool::spawn_on of every rank program
  kPrepost,       ///< engine run up to the burst release
  kSimulate,      ///< engine run of the timed messages
  kIsend,         ///< mpi::Rank::isend
  kIrecv,         ///< mpi::Rank::irecv
  kReference,     ///< reference-kernel run between simulate slices
  kVerify,        ///< the benchmark's own delivery checks
  kTeardown,      ///< mpi::Machine destructor
  kCount,
};

const char* to_string(SpanName name);

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// Start a new trace (one repetition): clears the kept span records.
  void start_trace();
  /// Open a span as a child of the innermost open span.
  void begin(SpanName name);
  /// Close the innermost open span, which must be `name`.
  void end(SpanName name);

  const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  /// Totals of the `child` spans whose parent is a `parent` span.
  const SpanTotals& totals_under(SpanName parent, SpanName child) const {
    return under_[index(parent, child)];
  }
  /// Discard the per-name totals (the kept records stay).
  void reset_totals();

  /// Write the kept records as Chrome trace-event JSON (opens in
  /// Perfetto / chrome://tracing).  Returns false if the file could not
  /// be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    SpanName name = SpanName::kRep;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    double start_ns = 0.0;
    double end_ns = 0.0;
    double self_ns = 0.0;
  };
  struct Open {
    std::size_t record = 0;
    double child_ns = 0.0;
  };

  static std::size_t index(SpanName parent, SpanName child) {
    return static_cast<std::size_t>(parent) *
               static_cast<std::size_t>(SpanName::kCount) +
           static_cast<std::size_t>(child);
  }
  void add(SpanTotals& t, double duration, double self_ns);

  Clock::time_point origin_;
  std::uint64_t trace_id_ = 0;
  std::vector<Record> records_;
  std::vector<Open> stack_;
  std::vector<SpanTotals> totals_;
  std::vector<SpanTotals> under_;  ///< [parent][child]
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, SpanName name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->begin(name_);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanName name_;
};

}  // namespace perfbench

#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kRep: return "rep";
    case SpanName::kSetup: return "setup";
    case SpanName::kMachineBuild: return "mpi.machine_build";
    case SpanName::kSpawn: return "sim.spawn";
    case SpanName::kPrepost: return "prepost";
    case SpanName::kSimulate: return "simulate";
    case SpanName::kIsend: return "mpi.isend";
    case SpanName::kIrecv: return "mpi.irecv";
    case SpanName::kReference: return "reference";
    case SpanName::kVerify: return "verify";
    case SpanName::kTeardown: return "mpi.machine_teardown";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer()
    : origin_(Clock::now()) {
  reset_totals();
}

void Tracer::start_trace() {
  if (!stack_.empty()) throw std::logic_error("trace restarted inside a span");
  ++trace_id_;
  records_.clear();
}

void Tracer::begin(SpanName name) {
  Record r;
  r.name = name;
  r.id = static_cast<std::uint32_t>(records_.size() + 1);
  r.parent = stack_.empty() ? 0 : records_[stack_.back().record].id;
  r.start_ns = elapsed_ns(origin_, Clock::now());
  stack_.push_back(Open{records_.size(), 0.0});
  records_.push_back(r);
}

void Tracer::end(SpanName name) {
  const double now = elapsed_ns(origin_, Clock::now());
  if (stack_.empty() || records_[stack_.back().record].name != name) {
    throw std::logic_error("spans closed out of order");
  }
  const Open open = stack_.back();
  stack_.pop_back();
  Record& r = records_[open.record];
  r.end_ns = now;
  const double duration = r.end_ns - r.start_ns;
  r.self_ns = duration - open.child_ns;
  add(totals_[static_cast<std::size_t>(name)], duration, r.self_ns);
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    add(under_[index(records_[stack_.back().record].name, name)], duration,
        r.self_ns);
  }
}

void Tracer::add(SpanTotals& t, double duration, double self_ns) {
  ++t.count;
  t.total_ns += duration;
  t.self_ns += self_ns;
}

void Tracer::reset_totals() {
  constexpr auto n = static_cast<std::size_t>(SpanName::kCount);
  totals_.assign(n, SpanTotals{});
  under_.assign(n * n, SpanTotals{});
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%llu,"
                 "\"id\":%u,\"parent\":%u,\"self_us\":%.3f}}%s\n",
                 to_string(r.name), r.start_ns / 1e3,
                 (r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(trace_id_), r.id, r.parent,
                 r.self_ns / 1e3, i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

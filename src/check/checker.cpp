#include "check/checker.hpp"

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>

#include "alpu/alpu.hpp"
#include "alpu/array.hpp"
#include "alpu/pipelined.hpp"
#include "common/check.hpp"
#include "sim/engine.hpp"

namespace alpu::check {
namespace {

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string join_responses(const std::vector<SpecResponse>& rs) {
  if (rs.empty()) return "(none)";
  std::string out;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i != 0) out += ", ";
    out += to_string(rs[i]);
  }
  return out;
}

// ---- enumeration alphabet -------------------------------------------------
//
// Two distinguishable headers sharing a context, one source/tag
// wildcard pattern, and one partial sweep selector are enough to
// exercise every interesting relation: equal vs distinct entries,
// wildcard overlap, sweeps that remove a strict subset.  Keeping the
// alphabet minimal is what keeps exhaustive depth-6 enumeration cheap.
struct Shape {
  MatchWord bits = 0;
  MatchWord mask = 0;
};

struct Alphabet {
  std::vector<Shape> inserts;
  std::vector<Shape> probes;
  Shape sweep;  ///< RESET MATCHING selector (always selector-masked)
};

Alphabet make_alphabet(AlpuFlavor flavor) {
  const MatchWord h0 = match::pack({1, 0, 0});
  const MatchWord h1 = match::pack({1, 1, 1});
  const match::Pattern wild = match::make_recv_pattern(1, std::nullopt,
                                                       std::nullopt);
  const match::Pattern sweep_sel =
      match::make_recv_pattern(1, 1, std::nullopt);

  Alphabet a;
  if (flavor == AlpuFlavor::kPostedReceive) {
    // Entries carry the masks; probes are explicit incoming headers.
    a.inserts = {{h0, 0}, {h1, 0}, {wild.bits, wild.mask}};
    a.probes = {{h0, 0}, {h1, 0}};
  } else {
    // Entries are explicit headers; probes carry the masks (the
    // reverse lookup of Figure 2b).
    a.inserts = {{h0, 0}, {h1, 0}};
    a.probes = {{h0, 0}, {h1, 0}, {wild.bits, wild.mask}};
  }
  a.sweep = {sweep_sel.bits, sweep_sel.mask};
  return a;
}

bool is_protocol(ImplKind impl) {
  return impl == ImplKind::kTransaction || impl == ImplKind::kPipelined;
}

/// Implementations carrying the transient-fault model (parity planes +
/// corrupt_for_test).  The stage-level RTL model deliberately has none.
bool supports_faults(ImplKind impl) {
  return impl == ImplKind::kArray || impl == ImplKind::kTransaction;
}

/// Where a sequence stands in a corruption episode.  The datapath
/// replay verifies parity in the kCorrupt step itself, so there an
/// episode starts out detected; on the protocol tier the flip stays
/// latent until the next probe, and insert sessions may run first.
enum class Episode : std::uint8_t { kNone, kLatent, kDetected };

/// Protocol legality of a whole sequence: insert-mode bracketing, plus
/// the corruption-episode rules (kCorrupt outside insert mode, at most
/// once per episode; until the recovering kReset only kProbe and kReset,
/// plus insert sessions while the flip is latent — no probe inside
/// them).  Used by the shrinker; the enumerator enforces the same rules
/// incrementally — keep the two in lockstep or shrinking produces
/// sequences the spec asserts on.
bool sequence_legal(const std::vector<Op>& seq, bool protocol) {
  bool mode = false;
  Episode ep = Episode::kNone;
  for (const Op& op : seq) {
    switch (op.kind) {
      case OpKind::kBegin:
        if (!protocol || mode || ep == Episode::kDetected) return false;
        mode = true;
        break;
      case OpKind::kEnd:
        if (!protocol || !mode) return false;
        mode = false;
        break;
      case OpKind::kInsert:
        // (An episode admits inserts only inside a latent-flip session.)
        if ((protocol && !mode) || (!protocol && ep != Episode::kNone)) {
          return false;
        }
        break;
      case OpKind::kReset:
        if (mode) return false;
        ep = Episode::kNone;
        break;
      case OpKind::kSweep:
        if (mode || ep != Episode::kNone) return false;
        break;
      case OpKind::kProbe:
        if (ep != Episode::kNone && mode) return false;
        if (ep != Episode::kNone) ep = Episode::kDetected;
        break;
      case OpKind::kProbeRejected:
        if (ep != Episode::kNone) return false;
        break;
      case OpKind::kCorrupt:
        if (mode || ep != Episode::kNone) return false;
        ep = protocol ? Episode::kLatent : Episode::kDetected;
        break;
    }
  }
  return true;
}

/// The two corruption variants the fault alphabet interleaves: a data-
/// plane flip (bits plane, cell 0 — a padded cell is still covered, so
/// this is detectable even at occupancy 0) and a validity-bitmap flip
/// (turns a dead cell live or a live cell dead).  Field encoding is
/// documented on OpKind::kCorrupt.
constexpr Op kCorruptDataBit{OpKind::kCorrupt, /*bits=*/0, /*mask=*/0,
                             /*cookie=*/14, 0};
constexpr Op kCorruptValidBit{OpKind::kCorrupt, /*bits=*/3, /*mask=*/1,
                              /*cookie=*/0, 0};

// ---- datapath tier: AlpuArray vs ListSpec ----------------------------------

/// Why the array's answer `got` on one match path disagrees with the
/// spec's `want`, or nothing when they agree.
std::optional<std::string> disagreement(const char* path,
                                        const hw::ArrayMatch& got,
                                        const SpecMatch& want) {
  if (got.hit == want.hit &&
      (!want.hit ||
       (got.location == want.index && got.cookie == want.cookie))) {
    return std::nullopt;
  }
  return strf("%s: hit=%d loc=%zu cookie=%u, spec says hit=%d index=%zu "
              "cookie=%u",
              path, got.hit, got.location, got.cookie, want.hit, want.index,
              want.cookie);
}

/// Replay `seq` against a fresh AlpuArray and the spec, comparing every
/// observable after every step.  Cookies and probe sequence numbers are
/// assigned in place from the op's position, so a failing trace prints
/// with the identities it actually ran with.  Returns the divergence
/// description and sets `*fail_at` to the failing step.
std::optional<std::string> replay_datapath(AlpuFlavor flavor,
                                           const CheckOptions& opt,
                                           std::vector<Op>& seq,
                                           std::size_t* fail_at) {
  ListSpec spec(flavor, opt.cells, match::kFullMask);
  hw::AlpuArray impl(flavor, opt.cells, opt.block);
  if (opt.faults) {
    hw::SeuConfig seu;
    seu.force_parity = true;  // detection only; the checker injects
    impl.install_fault_model(seu, /*stream=*/0);
  }
  Cookie next_cookie = 1;
  std::uint64_t next_seq = 1;
  // True between a kCorrupt and the recovering kReset: the planes are
  // untrustworthy, so probes must all miss (quarantine) and the state
  // comparison is suspended until the rebuild.
  bool corrupted = false;
  std::uint64_t corrupts = 0;  ///< kCorrupt ops replayed so far

  for (std::size_t i = 0; i < seq.size(); ++i) {
    Op& op = seq[i];
    *fail_at = i;
    switch (op.kind) {
      case OpKind::kInsert: {
        op.cookie = next_cookie++;
        const bool got = impl.insert(op.bits, op.mask, op.cookie);
        const bool want = spec.insert(op.bits, op.mask, op.cookie);
        if (got != want) {
          return strf("insert accepted=%d, spec says %d", got, want);
        }
        break;
      }
      case OpKind::kProbe: {
        op.seq = next_seq++;
        const hw::Probe probe{op.bits, op.mask, op.seq};
        if (corrupted) {
          // The parity verify at the head of every search must refuse
          // to answer from corrupted planes: all three match entry
          // points report a miss and a sweep with the probe as its
          // selector removes nothing while quarantined, whatever is
          // stored.
          for (const auto& [path, got] :
               {std::pair{"match()", impl.match(probe)},
                std::pair{"match_tree()", impl.match_tree(probe)},
                std::pair{"match_and_delete()",
                          impl.match_and_delete(probe)}}) {
            if (auto d = disagreement(path, got, SpecMatch{})) return d;
          }
          if (const std::size_t n = impl.invalidate_matching(probe); n != 0) {
            return strf("quarantined sweep removed %zu entries", n);
          }
          break;
        }
        // The two pure match paths, then the deleting one.
        const SpecMatch want = spec.match(op.bits, op.mask);
        for (const auto& [path, got] :
             {std::pair{"match()", impl.match(probe)},
              std::pair{"match_tree()", impl.match_tree(probe)}}) {
          if (auto d = disagreement(path, got, want)) return d;
        }
        const hw::ArrayMatch del = impl.match_and_delete(probe);
        if (auto d = disagreement("match_and_delete()", del,
                                  spec.match_and_delete(op.bits, op.mask))) {
          return d;
        }
        break;
      }
      case OpKind::kReset:
        impl.reset();
        spec.reset();
        corrupted = false;
        // RESET is the recovery command: parity reheals and the
        // quarantine lifts.
        if (opt.faults && (!impl.parity_ok() || impl.quarantined())) {
          return strf("reset left parity_ok=%d quarantined=%d",
                      impl.parity_ok(), impl.quarantined());
        }
        break;
      case OpKind::kCorrupt:
        impl.corrupt_for_test(static_cast<unsigned>(op.bits),
                              static_cast<std::size_t>(op.mask), op.cookie);
        corrupted = true;
        ++corrupts;
        // A single flipped bit in any plane, live cell or padded tail,
        // must be detected at once and latch the quarantine.
        if (impl.parity_ok() || !impl.quarantined()) {
          return strf("corruption went undetected: parity_ok=%d "
                      "quarantined=%d",
                      impl.parity_ok(), impl.quarantined());
        }
        break;
      case OpKind::kSweep: {
        const hw::Probe selector{op.bits, op.mask, 0};
        const std::size_t got = impl.invalidate_matching(selector);
        const std::size_t want = spec.sweep(op.bits, op.mask);
        if (got != want) {
          return strf("sweep removed %zu entries, spec says %zu", got, want);
        }
        break;
      }
      case OpKind::kBegin:
      case OpKind::kEnd:
      case OpKind::kProbeRejected:
        ALPU_CHECK_FAIL("protocol-only op in a datapath sequence");
    }

    // Exactly one detection per flip, and none invented: the checker's
    // kCorrupt is the only corruption source (no injector runs).
    if (opt.faults) {
      const hw::SeuStats seu = impl.seu_stats();
      if (seu.parity_faults != corrupts || seu.seu_injected != 0) {
        return strf("parity_faults=%llu seu_injected=%llu after %llu "
                    "corrupt ops",
                    static_cast<unsigned long long>(seu.parity_faults),
                    static_cast<unsigned long long>(seu.seu_injected),
                    static_cast<unsigned long long>(corrupts));
      }
    }

    // Full post-step state comparison: occupancy, fullness, every live
    // cell, and the invalid tail.  Suspended while quarantined: the
    // planes (validity included, so occupancy too) are corrupted by
    // construction, and the recovery contract only promises equivalence
    // again after the rebuild.
    if (corrupted) continue;
    if (impl.occupancy() != spec.size() || impl.full() != spec.full() ||
        impl.free_slots() != spec.capacity() - spec.size()) {
      return strf("occupancy %zu full=%d free=%zu, spec says %zu full=%d",
                  impl.occupancy(), impl.full(), impl.free_slots(),
                  spec.size(), spec.full());
    }
    for (std::size_t j = 0; j < spec.size(); ++j) {
      const hw::Cell cell = impl.cell(j);
      const SpecEntry& want = spec.entries()[j];
      if (!cell.valid || cell.bits != want.bits || cell.mask != want.mask ||
          cell.cookie != want.cookie) {
        return strf(
            "cell %zu holds {bits=%llx mask=%llx cookie=%u valid=%d}, "
            "spec says {bits=%llx mask=%llx cookie=%u}",
            j, static_cast<unsigned long long>(cell.bits),
            static_cast<unsigned long long>(cell.mask), cell.cookie,
            cell.valid, static_cast<unsigned long long>(want.bits),
            static_cast<unsigned long long>(want.mask), want.cookie);
      }
    }
    for (std::size_t j = spec.size(); j < spec.capacity(); ++j) {
      if (impl.cell(j).valid) {
        return strf("cell %zu is valid beyond occupancy %zu", j, spec.size());
      }
    }
  }
  return std::nullopt;
}

// ---- protocol tier: Alpu / PipelinedAlpu vs ProtocolSpec ------------------

/// Functional fields of a device response, zeroed where the kind does
/// not define them, so vectors compare with ==.
SpecResponse normalize(const hw::Response& r) {
  SpecResponse s;
  s.kind = r.kind;
  switch (r.kind) {
    case hw::ResponseKind::kStartAck:
      s.free_slots = r.free_slots;
      break;
    case hw::ResponseKind::kMatchSuccess:
      s.cookie = r.cookie;
      s.probe_seq = r.probe_seq;
      break;
    case hw::ResponseKind::kMatchFailure:
      s.probe_seq = r.probe_seq;
      break;
    case hw::ResponseKind::kParityFault:
      s.probe_seq = r.probe_seq;
      break;
  }
  return s;
}

/// Logical cell order (oldest first) of the transaction-level unit:
/// AlpuArray keeps the list compacted with index 0 oldest.
std::vector<SpecEntry> logical_cells(const hw::Alpu& dev) {
  std::vector<SpecEntry> out;
  const hw::AlpuArray& array = dev.array();
  out.reserve(array.occupancy());
  for (std::size_t i = 0; i < array.occupancy(); ++i) {
    const hw::Cell c = array.cell(i);
    out.push_back(SpecEntry{c.bits, c.mask, c.cookie});
  }
  return out;
}

/// Logical cell order of the stage-level unit: the RTL array stores the
/// youngest at cell 0 and may hold holes mid-insert; cells only drift
/// toward the old end without overtaking, so walking from the high end
/// down yields oldest-first regardless of compaction progress.
std::vector<SpecEntry> logical_cells(const hw::PipelinedAlpu& dev) {
  std::vector<SpecEntry> out;
  const hw::RtlAlpu& rtl = dev.datapath();
  out.reserve(rtl.occupancy());
  for (std::size_t i = rtl.capacity(); i-- > 0;) {
    const hw::Cell& c = rtl.cell(i);
    if (c.valid) out.push_back(SpecEntry{c.bits, c.mask, c.cookie});
  }
  return out;
}

hw::AlpuConfig make_device_config(AlpuFlavor flavor, const CheckOptions& opt,
                                  bool fault_model) {
  hw::AlpuConfig cfg;
  cfg.flavor = flavor;
  cfg.total_cells = opt.cells;
  cfg.block_size = opt.block;
  // Fault checking needs the parity planes installed; the injector and
  // the scrub stay off — kCorrupt flips bits deterministically instead.
  cfg.seu.force_parity = opt.faults && fault_model;
  return cfg;
}

/// Replay `seq` against a fresh device at run-to-quiescence
/// granularity: push one op, drain the simulation, and require the
/// response stream, the occupancy, and the logical cell order to equal
/// the protocol spec's after every step.
template <typename Device>
std::optional<std::string> replay_protocol(AlpuFlavor flavor,
                                           const CheckOptions& opt,
                                           std::vector<Op>& seq,
                                           std::size_t* fail_at) {
  sim::Engine engine;
  constexpr bool kFaultModel = std::is_same_v<Device, hw::Alpu>;
  Device dev(engine, "dut", make_device_config(flavor, opt, kFaultModel));
  ProtocolSpec spec(flavor, opt.cells, match::kFullMask);
  Cookie next_cookie = 1;
  std::uint64_t next_seq = 1;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    Op& op = seq[i];
    *fail_at = i;

    bool pushed = true;
    switch (op.kind) {
      case OpKind::kBegin:
        pushed = dev.push_command({hw::CommandKind::kStartInsert, 0, 0, 0});
        break;
      case OpKind::kEnd:
        pushed = dev.push_command({hw::CommandKind::kStopInsert, 0, 0, 0});
        break;
      case OpKind::kInsert:
        op.cookie = next_cookie++;
        pushed = dev.push_command(
            {hw::CommandKind::kInsert, op.bits, op.mask, op.cookie});
        break;
      case OpKind::kProbe:
        op.seq = next_seq++;
        pushed = dev.push_probe({op.bits, op.mask, op.seq});
        break;
      case OpKind::kReset:
        pushed = dev.push_command({hw::CommandKind::kReset, 0, 0, 0});
        break;
      case OpKind::kSweep:
        pushed = dev.push_command(
            {hw::CommandKind::kResetMatching, op.bits, op.mask, 0});
        break;
      case OpKind::kCorrupt:
        if constexpr (kFaultModel) {
          dev.corrupt_for_test(static_cast<unsigned>(op.bits),
                               static_cast<std::size_t>(op.mask), op.cookie);
        } else {
          ALPU_CHECK_FAIL("corrupt op on a device without a fault model");
        }
        break;
      case OpKind::kProbeRejected:
        // The header FIFO refused the probe before the unit saw it:
        // nothing reaches the device.  The spec step must agree that no
        // response is owed and no state changed.
        break;
    }
    // FIFO depths dwarf the bounded sequence length; back-pressure here
    // would itself be a protocol bug worth failing on.
    ALPU_ASSERT(pushed, "device FIFO refused an op within bounded depth");

    engine.run();

    std::vector<SpecResponse> got;
    while (std::optional<hw::Response> r = dev.pop_result()) {
      got.push_back(normalize(*r));
    }
    std::vector<SpecResponse> want;
    spec.apply(op, want);
    if (got != want) {
      return strf("responses [%s], spec says [%s]",
                  join_responses(got).c_str(), join_responses(want).c_str());
    }

    // The occupancy / cell-order comparison is suspended while the spec
    // is quarantined (the response-stream comparison above keeps
    // running — that is where PARITY FAULT detection is proven).
    if (spec.quarantined()) continue;
    if (dev.occupancy() != spec.list().size()) {
      return strf("occupancy %zu, spec says %zu", dev.occupancy(),
                  spec.list().size());
    }
    const std::vector<SpecEntry> cells = logical_cells(dev);
    if (cells != spec.list().entries()) {
      for (std::size_t j = 0; j < cells.size(); ++j) {
        const SpecEntry& want_e = spec.list().entries()[j];
        if (!(cells[j] == want_e)) {
          return strf(
              "logical cell %zu holds {bits=%llx mask=%llx cookie=%u}, "
              "spec says {bits=%llx mask=%llx cookie=%u}",
              j, static_cast<unsigned long long>(cells[j].bits),
              static_cast<unsigned long long>(cells[j].mask),
              cells[j].cookie, static_cast<unsigned long long>(want_e.bits),
              static_cast<unsigned long long>(want_e.mask), want_e.cookie);
        }
      }
      return "logical cell order diverged";
    }
  }
  return std::nullopt;
}

// ---- the bounded enumerator -----------------------------------------------

class Checker {
 public:
  Checker(ImplKind impl, AlpuFlavor flavor, const CheckOptions& opt)
      : impl_(impl), flavor_(flavor), opt_(opt),
        alphabet_(make_alphabet(flavor)), protocol_(is_protocol(impl)) {}

  CheckResult run() {
    CheckResult result = empty_result();

    // Iterative deepening: every length-(d-1) sequence was already
    // checked at the previous depth, so the first failure found here is
    // length-minimal by construction.
    std::vector<Op> seq;
    seq.reserve(opt_.depth);
    for (std::size_t depth = 1; depth <= opt_.depth; ++depth) {
      if (!extend(seq, /*in_mode=*/false, Episode::kNone, depth, result)) {
        shrink(result);
        result.ok = false;
        return result;
      }
      ALPU_ASSERT(seq.empty(), "enumerator left a partial sequence behind");
    }
    result.ok = true;
    return result;
  }

  /// Replay one given sequence; shrink it on failure.
  CheckResult run_sequence(std::vector<Op> seq) {
    CheckResult result = empty_result();
    result.ok = replay(seq, result);
    if (!result.ok) shrink(result);
    return result;
  }

 private:
  CheckResult empty_result() const {
    CheckResult result;
    result.impl = impl_;
    result.flavor = flavor_;
    return result;
  }

  /// Ops legal from the current mode.  Datapath sequences have no
  /// modes; the protocol alphabet honours Figure 3 (insert only inside
  /// insert mode; reset/sweep only outside; PipelinedAlpu discards
  /// RESET MATCHING, so it gets no sweep at all).  A corruption episode
  /// narrows the alphabet to probes (each must answer PARITY FAULT /
  /// miss) and the recovering reset, plus insert sessions while the
  /// flip is latent (an insert may neither hide it nor miss its cell).
  void legal_ops(bool in_mode, Episode ep, std::vector<Op>& out) const {
    out.clear();
    if (ep != Episode::kNone) {
      if (in_mode) {
        out.push_back(Op{OpKind::kEnd, 0, 0, 0, 0});
        for (const Shape& s : alphabet_.inserts) {
          out.push_back(Op{OpKind::kInsert, s.bits, s.mask, 0, 0});
        }
        return;
      }
      for (const Shape& s : alphabet_.probes) {
        out.push_back(Op{OpKind::kProbe, s.bits, s.mask, 0, 0});
      }
      out.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      if (ep == Episode::kLatent) out.push_back(Op{OpKind::kBegin, 0, 0, 0, 0});
      return;
    }
    const bool corrupt_ok = opt_.faults && supports_faults(impl_);
    if (!protocol_) {
      for (const Shape& s : alphabet_.inserts) {
        out.push_back(Op{OpKind::kInsert, s.bits, s.mask, 0, 0});
      }
      for (const Shape& s : alphabet_.probes) {
        out.push_back(Op{OpKind::kProbe, s.bits, s.mask, 0, 0});
      }
      out.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      out.push_back(
          Op{OpKind::kSweep, alphabet_.sweep.bits, alphabet_.sweep.mask, 0, 0});
      if (corrupt_ok) {
        out.push_back(kCorruptDataBit);
        out.push_back(kCorruptValidBit);
      }
      return;
    }
    for (const Shape& s : alphabet_.probes) {
      out.push_back(Op{OpKind::kProbe, s.bits, s.mask, 0, 0});
    }
    if (in_mode) {
      out.push_back(Op{OpKind::kEnd, 0, 0, 0, 0});
      for (const Shape& s : alphabet_.inserts) {
        out.push_back(Op{OpKind::kInsert, s.bits, s.mask, 0, 0});
      }
    } else {
      out.push_back(Op{OpKind::kBegin, 0, 0, 0, 0});
      out.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      if (impl_ == ImplKind::kTransaction) {
        out.push_back(Op{OpKind::kSweep, alphabet_.sweep.bits,
                         alphabet_.sweep.mask, 0, 0});
      }
      if (corrupt_ok) {
        out.push_back(kCorruptDataBit);
        out.push_back(kCorruptValidBit);
      }
    }
  }

  /// DFS over sequences of length exactly `target`.  Returns false when
  /// a divergence was found (recorded into `result`).
  bool extend(std::vector<Op>& seq, bool in_mode, Episode ep,
              std::size_t target, CheckResult& result) {
    if (seq.size() == target) {
      return replay(seq, result);
    }
    std::vector<Op> ops;
    legal_ops(in_mode, ep, ops);
    for (const Op& op : ops) {
      seq.push_back(op);
      const bool next_mode =
          op.kind == OpKind::kBegin   ? true
          : op.kind == OpKind::kEnd   ? false
                                      : in_mode;
      Episode next_ep = ep;
      if (op.kind == OpKind::kCorrupt) {
        next_ep = protocol_ ? Episode::kLatent : Episode::kDetected;
      } else if (op.kind == OpKind::kReset) {
        next_ep = Episode::kNone;
      } else if (op.kind == OpKind::kProbe && ep != Episode::kNone) {
        next_ep = Episode::kDetected;
      }
      if (!extend(seq, next_mode, next_ep, target, result)) {
        return false;
      }
      seq.pop_back();
    }
    return true;
  }

  std::optional<std::string> replay_once(std::vector<Op>& seq,
                                         std::size_t* fail_at) const {
    switch (impl_) {
      case ImplKind::kArray:
        return replay_datapath(flavor_, opt_, seq, fail_at);
      case ImplKind::kTransaction:
        return replay_protocol<hw::Alpu>(flavor_, opt_, seq, fail_at);
      case ImplKind::kPipelined:
        return replay_protocol<hw::PipelinedAlpu>(flavor_, opt_, seq,
                                                  fail_at);
    }
    ALPU_CHECK_FAIL("unknown ImplKind");
    return std::nullopt;
  }

  bool replay(std::vector<Op>& seq, CheckResult& result) {
    ++result.sequences;
    std::size_t fail_at = 0;
    const std::optional<std::string> divergence = replay_once(seq, &fail_at);
    if (!divergence.has_value()) {
      result.ops_applied += seq.size();
      return true;
    }
    result.ops_applied += fail_at + 1;
    result.counterexample.assign(seq.begin(),
                                 seq.begin() +
                                     static_cast<std::ptrdiff_t>(fail_at + 1));
    result.divergence = *divergence;
    return false;
  }

  /// Greedy delta shrink: repeatedly drop any run of ops whose removal
  /// (a) keeps the sequence protocol-legal and (b) still reproduces a
  /// divergence, until no single op can go.  Runs start at half the
  /// trace and halve, so a long fuzz trace sheds its irrelevant bulk in
  /// a few replays.  Iterative deepening already gives length-minimality
  /// within the enumeration order; this removes incidental prefix ops
  /// (e.g. probes that matched nothing) that deepening cannot.
  void shrink(CheckResult& result) const {
    std::vector<Op>& trace = result.counterexample;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t run = std::bit_floor(std::max<std::size_t>(
               trace.size() / 2, 1));
           run > 0; run /= 2) {
        for (std::size_t i = 0; i + run <= trace.size();) {
          std::vector<Op> candidate = trace;
          const auto first = candidate.begin() + static_cast<std::ptrdiff_t>(i);
          candidate.erase(first, first + static_cast<std::ptrdiff_t>(run));
          std::size_t fail_at = 0;
          std::optional<std::string> divergence;
          if (!candidate.empty() && sequence_legal(candidate, protocol_)) {
            divergence = replay_once(candidate, &fail_at);
          }
          if (!divergence.has_value()) {
            i += run;
            continue;
          }
          candidate.resize(fail_at + 1);
          trace = std::move(candidate);
          result.divergence = *divergence;
          changed = true;
        }
      }
    }
  }

  ImplKind impl_;
  AlpuFlavor flavor_;
  CheckOptions opt_;
  Alphabet alphabet_;
  bool protocol_;
};

void assert_shape(const CheckOptions& options) {
  ALPU_ASSERT(options.cells > 0 && options.block > 0 &&
                  options.cells % options.block == 0,
              "cells must be a positive multiple of block");
}

}  // namespace

const char* to_string(ImplKind impl) {
  switch (impl) {
    case ImplKind::kArray:
      return "array";
    case ImplKind::kTransaction:
      return "alpu";
    case ImplKind::kPipelined:
      return "pipelined";
  }
  return "?";
}

const char* to_string(AlpuFlavor flavor) {
  return flavor == AlpuFlavor::kPostedReceive ? "posted" : "unexpected";
}

CheckResult check_impl(ImplKind impl, AlpuFlavor flavor,
                       const CheckOptions& options) {
  ALPU_ASSERT(options.depth > 0, "check depth must be at least 1");
  assert_shape(options);
  return Checker(impl, flavor, options).run();
}

CheckResult check_sequence(ImplKind impl, AlpuFlavor flavor,
                           const CheckOptions& options, std::vector<Op> seq) {
  assert_shape(options);
  ALPU_ASSERT(sequence_legal(seq, is_protocol(impl)),
              "check_sequence given a protocol-illegal sequence");
  ALPU_ASSERT((options.faults && supports_faults(impl)) ||
                  std::none_of(seq.begin(), seq.end(),
                               [](const Op& op) {
                                 return op.kind == OpKind::kCorrupt;
                               }),
              "corrupt op without a fault model to detect it");
  return Checker(impl, flavor, options).run_sequence(std::move(seq));
}

std::string format_counterexample(const CheckResult& result) {
  std::string out;
  out += strf("counterexample (%s, %s flavour, %zu ops):\n",
              to_string(result.impl), to_string(result.flavor),
              result.counterexample.size());
  for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
    out += strf("  step %zu: %s\n", i + 1,
                to_string(result.counterexample[i]).c_str());
  }
  out += strf("  divergence at step %zu: %s\n", result.counterexample.size(),
              result.divergence.c_str());
  return out;
}

}  // namespace alpu::check

#include "check/spec.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "match/match.hpp"

namespace alpu::check {

std::string to_string(const Op& op) {
  char buf[128];
  const match::Pattern p{op.bits, op.mask};
  switch (op.kind) {
    case OpKind::kBegin:
      return "begin-insert";
    case OpKind::kEnd:
      return "end-insert";
    case OpKind::kInsert:
      std::snprintf(buf, sizeof buf, "insert %s cookie=%u",
                    match::to_string(p).c_str(), op.cookie);
      return buf;
    case OpKind::kProbe:
      std::snprintf(buf, sizeof buf, "probe %s seq=%llu",
                    match::to_string(p).c_str(),
                    static_cast<unsigned long long>(op.seq));
      return buf;
    case OpKind::kReset:
      return "reset";
    case OpKind::kSweep:
      std::snprintf(buf, sizeof buf, "sweep %s",
                    match::to_string(p).c_str());
      return buf;
    case OpKind::kProbeRejected:
      std::snprintf(buf, sizeof buf, "probe-rejected %s seq=%llu",
                    match::to_string(p).c_str(),
                    static_cast<unsigned long long>(op.seq));
      return buf;
    case OpKind::kCorrupt:
      std::snprintf(buf, sizeof buf, "corrupt plane=%llu cell=%llu bit=%u",
                    static_cast<unsigned long long>(op.bits),
                    static_cast<unsigned long long>(op.mask), op.cookie);
      return buf;
  }
  return "?";
}

std::string to_string(const SpecResponse& r) {
  char buf[96];
  switch (r.kind) {
    case hw::ResponseKind::kStartAck:
      std::snprintf(buf, sizeof buf, "START_ACK free=%u", r.free_slots);
      return buf;
    case hw::ResponseKind::kMatchSuccess:
      std::snprintf(buf, sizeof buf, "MATCH_SUCCESS cookie=%u seq=%llu",
                    r.cookie, static_cast<unsigned long long>(r.probe_seq));
      return buf;
    case hw::ResponseKind::kMatchFailure:
      std::snprintf(buf, sizeof buf, "MATCH_FAILURE seq=%llu",
                    static_cast<unsigned long long>(r.probe_seq));
      return buf;
    case hw::ResponseKind::kParityFault:
      std::snprintf(buf, sizeof buf, "PARITY_FAULT seq=%llu",
                    static_cast<unsigned long long>(r.probe_seq));
      return buf;
  }
  return "?";
}

// ---- ListSpec -------------------------------------------------------------

ListSpec::ListSpec(AlpuFlavor flavor, std::size_t capacity,
                   MatchWord significant_mask)
    : flavor_(flavor), capacity_(capacity),
      significant_mask_(significant_mask) {
  ALPU_ASSERT(capacity > 0, "spec list must have at least one slot");
  ALPU_ASSERT(significant_mask != 0, "spec needs at least one compared bit");
}

bool ListSpec::insert(MatchWord bits, MatchWord mask, Cookie cookie) {
  if (full()) return false;
  entries_.push_back(SpecEntry{bits, mask, cookie});
  return true;
}

bool ListSpec::entry_matches(const SpecEntry& e, MatchWord bits,
                             MatchWord mask) const {
  const MatchWord dont_care =
      flavor_ == AlpuFlavor::kPostedReceive ? e.mask : mask;
  return ((e.bits ^ bits) & ~dont_care & significant_mask_) == 0;
}

SpecMatch ListSpec::match(MatchWord bits, MatchWord mask) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entry_matches(entries_[i], bits, mask)) {
      return SpecMatch{true, i, entries_[i].cookie};
    }
  }
  return SpecMatch{};
}

SpecMatch ListSpec::match_and_delete(MatchWord bits, MatchWord mask) {
  const SpecMatch m = match(bits, mask);
  if (m.hit) {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(m.index));
  }
  return m;
}

std::size_t ListSpec::sweep(MatchWord bits, MatchWord mask) {
  // Like the hardware sweep, selection is always selector-masked: the
  // stored per-cell masks describe what a cell ACCEPTS, not what
  // selects it.
  const MatchWord care = ~mask & significant_mask_;
  std::size_t removed = 0;
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (((entries_[i].bits ^ bits) & care) == 0) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    }
  }
  return removed;
}

// ---- ProtocolSpec ---------------------------------------------------------

ProtocolSpec::ProtocolSpec(AlpuFlavor flavor, std::size_t capacity,
                           MatchWord significant_mask)
    : list_(flavor, capacity, significant_mask) {}

void ProtocolSpec::settle(std::vector<SpecResponse>& out) {
  if (quarantined_) {
    // The unit latched a parity fault: every probe is answered PARITY
    // FAULT (one response per header, in probe order) and nothing
    // touches the list until the recovering RESET.  kCorrupt is only
    // legal outside insert mode, so no probe can be held here.
    ALPU_ASSERT(!held_.has_value(), "probe held across a corruption");
    while (!queued_.empty()) {
      out.push_back(SpecResponse{hw::ResponseKind::kParityFault, 0, 0,
                                 queued_.front().seq});
      queued_.pop_front();
    }
    return;
  }
  for (;;) {
    if (held_.has_value()) {
      if (!insert_mode_) {
        // STOP INSERT (or never in insert mode): the held probe is
        // re-matched in Match state and its result — success or, now
        // legal again, failure — is emitted.
        const SpecMatch m = list_.match_and_delete(held_->bits, held_->mask);
        out.push_back(m.hit
                          ? SpecResponse{hw::ResponseKind::kMatchSuccess,
                                         m.cookie, 0, held_->seq}
                          : SpecResponse{hw::ResponseKind::kMatchFailure, 0, 0,
                                         held_->seq});
        held_.reset();
        retry_pending_ = false;
        continue;
      }
      if (retry_pending_) {
        // Every insert gives the held probe new entries to match
        // against; only a success may be reported inside insert mode.
        retry_pending_ = false;
        const SpecMatch m = list_.match_and_delete(held_->bits, held_->mask);
        if (m.hit) {
          out.push_back(SpecResponse{hw::ResponseKind::kMatchSuccess,
                                     m.cookie, 0, held_->seq});
          held_.reset();
        }
        continue;
      }
      // Held with no retry pending: matching pauses; queued probes wait
      // behind the held one (response order follows probe order).
      return;
    }
    if (!queued_.empty()) {
      const PendingProbe p = queued_.front();
      queued_.pop_front();
      const SpecMatch m = list_.match_and_delete(p.bits, p.mask);
      if (m.hit) {
        out.push_back(SpecResponse{hw::ResponseKind::kMatchSuccess, m.cookie,
                                   0, p.seq});
      } else if (insert_mode_) {
        held_ = p;  // failure is not reportable during insert mode
      } else {
        out.push_back(
            SpecResponse{hw::ResponseKind::kMatchFailure, 0, 0, p.seq});
      }
      continue;
    }
    return;
  }
}

void ProtocolSpec::apply(const Op& op, std::vector<SpecResponse>& out) {
  switch (op.kind) {
    case OpKind::kBegin:
      ALPU_ASSERT(!insert_mode_, "begin-insert while already in insert mode");
      out.push_back(SpecResponse{
          hw::ResponseKind::kStartAck, 0,
          static_cast<std::uint32_t>(list_.capacity() - list_.size()), 0});
      insert_mode_ = true;
      break;
    case OpKind::kEnd:
      ALPU_ASSERT(insert_mode_, "end-insert outside insert mode");
      insert_mode_ = false;
      retry_pending_ = false;
      break;
    case OpKind::kInsert: {
      ALPU_ASSERT(insert_mode_, "insert command outside insert mode");
      // Past the granted count the hardware has nowhere to put the
      // entry: record-and-drop (protocol violation by the processor).
      const std::size_t cell = list_.size();
      if (list_.insert(op.bits, op.mask, op.cookie) && latent_cell_ == cell) {
        // The insert rewrote every plane of the flipped cell (data and
        // validity) before any probe looked: nothing corrupt remains.
        quarantined_ = false;
        latent_cell_.reset();
      }
      if (held_.has_value()) retry_pending_ = true;
      break;
    }
    case OpKind::kProbe:
      queued_.push_back(PendingProbe{op.bits, op.mask, op.seq});
      latent_cell_.reset();  // the probe's parity verify latches the fault
      break;
    case OpKind::kReset:
      ALPU_ASSERT(!insert_mode_, "reset inside insert mode is discarded");
      // RESET is also the recovery command: it clears the (corrupted)
      // storage, reheals parity, and lifts the quarantine.
      list_.reset();
      quarantined_ = false;
      latent_cell_.reset();
      break;
    case OpKind::kSweep:
      ALPU_ASSERT(!insert_mode_, "sweep inside insert mode is discarded");
      (void)list_.sweep(op.bits, op.mask);
      break;
    case OpKind::kProbeRejected:
      // A full header FIFO refused the probe before the unit saw it: no
      // response is owed and nothing changes.  The settle() below must
      // therefore make no progress either — the op is a pure stutter in
      // the response stream (the processor re-offers the header later as
      // an ordinary kProbe).
      break;
    case OpKind::kCorrupt:
      // A flipped bit owes no response of its own; detection happens at
      // the next probe's parity verify, which is exactly when the first
      // PARITY FAULT is emitted.  Quarantining now (rather than at
      // detection) is observationally identical because an undetected
      // flip has no observable either.
      ALPU_ASSERT(!insert_mode_, "corrupt op inside insert mode");
      ALPU_ASSERT(!quarantined_, "one corruption per episode");
      quarantined_ = true;
      latent_cell_ = static_cast<std::size_t>(op.mask);
      break;
  }
  settle(out);
}

}  // namespace alpu::check

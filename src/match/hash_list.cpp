#include "match/hash_list.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace alpu::match {

std::uint64_t PostedHashList::insert(const Pattern& pattern, Cookie cookie) {
  const std::uint64_t seq = next_seq_++;
  if (pattern.is_exact()) {
    exact_[pattern.bits & kFullMask].push_back(ExactItem{seq, cookie});
  } else {
    wild_.push_back(WildItem{seq, pattern, cookie, true});
    ++wildcard_live_;
  }
  ++live_;
  return seq;
}

HashSearchResult PostedHashList::consume_match(MatchWord word) {
  HashSearchResult r;
  // Candidate 1: the exact bucket.  Entries within a bucket are in
  // insertion order, so the front is the oldest exact candidate.
  r.hash_probes = 1;
  auto it = exact_.find(word & kFullMask);
  std::uint64_t exact_seq = std::numeric_limits<std::uint64_t>::max();
  if (it != exact_.end() && !it->second.empty()) {
    exact_seq = it->second.front().seq;
  }
  // Candidate 2: the first matching wildcard entry (scan in order; stop
  // early once past the exact candidate's sequence number, since any
  // later wildcard hit would lose the ordering arbitration anyway).
  std::size_t wild_pos = wild_.size();
  std::uint64_t wild_seq = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < wild_.size(); ++i) {
    const WildItem& w = wild_[i];
    if (w.seq > exact_seq) break;
    ++r.entries_scanned;
    if (w.valid && w.pattern.matches(word)) {
      wild_pos = i;
      wild_seq = w.seq;
      break;
    }
  }
  if (exact_seq == std::numeric_limits<std::uint64_t>::max() &&
      wild_seq == std::numeric_limits<std::uint64_t>::max()) {
    return r;  // no match
  }
  r.found = true;
  if (wild_seq < exact_seq) {
    r.seq = wild_seq;
    r.cookie = wild_[wild_pos].cookie;
    wild_[wild_pos].valid = false;
    --wildcard_live_;
    // Compact the tombstone prefix so scans stay short over time.
    while (!wild_.empty() && !wild_.front().valid) {
      wild_.erase(wild_.begin());
    }
  } else {
    r.seq = exact_seq;
    r.cookie = it->second.front().cookie;
    it->second.pop_front();
    if (it->second.empty()) exact_.erase(it);
  }
  --live_;
  return r;
}

std::uint64_t UnexpectedHashList::insert(MatchWord word, Cookie cookie) {
  const std::uint64_t seq = next_seq_++;
  journal_.push_back(Item{seq, word & kFullMask, cookie, true});
  index_[word & kFullMask].push_back(journal_.size() - 1);
  ++live_;
  return seq;
}

void UnexpectedHashList::erase_journal_index(std::size_t pos) {
  Item& item = journal_[pos];
  ALPU_ASSERT(item.valid, "erasing a journal tombstone");
  item.valid = false;
  auto it = index_.find(item.word);
  ALPU_ASSERT(it != index_.end(), "journal entry missing from hash index");
  auto& positions = it->second;
  positions.erase(std::find(positions.begin(), positions.end(), pos));
  if (positions.empty()) index_.erase(it);
  --live_;
  // Trim tombstones at the journal front (keeps wildcard scans bounded).
  std::size_t dead = 0;
  while (dead < journal_.size() && !journal_[dead].valid) ++dead;
  if (dead > 64) {  // amortize: rebuild positions only occasionally
    journal_.erase(journal_.begin(),
                   journal_.begin() + static_cast<std::ptrdiff_t>(dead));
    // lint: ok(unordered-iteration) — rebases every bucket by the same
    // offset, so the result is independent of hash iteration order.
    for (auto& [word, poss] : index_) {
      for (auto& p : poss) p -= dead;
    }
  }
}

HashSearchResult UnexpectedHashList::consume_match(const Pattern& probe) {
  HashSearchResult r;
  if (probe.is_exact()) {
    // O(1) path: direct bucket lookup; front of bucket is oldest arrival.
    r.hash_probes = 1;
    auto it = index_.find(probe.bits & kFullMask);
    if (it == index_.end() || it->second.empty()) return r;
    const std::size_t pos = it->second.front();
    r.found = true;
    r.seq = journal_[pos].seq;
    r.cookie = journal_[pos].cookie;
    erase_journal_index(pos);
    return r;
  }
  // Wildcard probe: no hash key exists; fall back to the arrival-ordered
  // scan — the weakness of hashing for MPI that Section II identifies.
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    ++r.entries_scanned;
    const Item& item = journal_[i];
    if (item.valid && probe.matches(item.word)) {
      r.found = true;
      r.seq = item.seq;
      r.cookie = item.cookie;
      erase_journal_index(i);
      return r;
    }
  }
  return r;
}

}  // namespace alpu::match

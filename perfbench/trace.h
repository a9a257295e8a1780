// In-memory span recorder and the traced replay of one campaign item.
//
// The traced run does not instrument the libraries: it replays each item (one program
// validated under one vendor) through the same public functions RunSeedShard calls, in
// Algorithm 1's order, and wraps every call in a span. Spans live in memory until the run
// ends and are then written out as JSON lines (name, start, end, parent, item id).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/artemis/campaign/shard.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string item;   // "<vendor>/<seed id>"; empty outside any item
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    // index into the recorder's spans, -1 for a root span
  int thread = 0;     // small per-recorder thread number
  uint64_t steps = 0; // RunProgram spans: the run's executed steps
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span on the calling thread (its parent is the thread's innermost open span)
  // and returns its index. Thread-safe.
  int Begin(const std::string& name, const std::string& item);
  void End(int index, uint64_t steps = 0);

  std::vector<Span> spans() const;

  // JSON lines, one span per line, in Begin order.
  std::string ToJsonLines() const;

 private:
  int64_t Now() const;
  int ThreadNumber();

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint64_t, int> threads_;  // hashed thread id -> thread number
  int64_t origin_ns_ = 0;
};

// Opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, const std::string& item)
      : recorder_(recorder), index_(recorder->Begin(name, item)) {}
  ~ScopedSpan() { recorder_->End(index_, steps_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_steps(uint64_t steps) { steps_ = steps; }

 private:
  SpanRecorder* recorder_;
  int index_;
  uint64_t steps_ = 0;
};

// Work counters the replay sees directly (the untraced run only has CampaignStats).
struct ReplayCounts {
  int mutants = 0;
  int discard_interp_timeout = 0;
  int discard_jit_timeout = 0;
  int discard_non_neutral = 0;
  int new_trace = 0;
  int stress_points = 0;
  uint64_t steps_all = 0;        // every validation run (triage excluded)
  uint64_t steps_discarded = 0;  // runs spent on mutants that were then discarded
  int triage_calls = 0;
  int triage_runs = 0;
  int triage_attributed = 0;

  void Add(const ReplayCounts& other);
};

// Replays RunSeedShard(vm_config, params, ordinal) span by span. `vm_config` must already
// carry the campaign's step budget, as RunCampaign prepares it. The result is meant to be
// identical to the library's; the caller checks that through the reduced OutcomeDigest.
artemis::SeedShardResult ReplaySeedShard(const jaguar::VmConfig& vm_config,
                                         const artemis::CampaignParams& params, int ordinal,
                                         SpanRecorder* recorder, ReplayCounts* counts);

// Per-layer self time: each span's duration minus its children's, summed by span name.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

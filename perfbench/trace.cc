#include "perfbench/trace.h"

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "src/artemis/fuzzer/generator.h"
#include "src/jaguar/bytecode/compiler.h"
#include "src/jaguar/jit/concurrent/install_schedule.h"
#include "src/jaguar/jit/stress/stress.h"
#include "src/jaguar/support/json.h"
#include "src/jaguar/vm/engine.h"

namespace perfbench {
namespace {

using artemis::DiscrepancyKind;
using jaguar::RunOutcome;
using jaguar::RunStatus;

// The calling thread's open spans, innermost last. One recorder is active at a time.
thread_local std::vector<int> open_spans;

std::vector<jaguar::BugId> NewlyFired(const RunOutcome& run, const RunOutcome& reference) {
  const std::set<jaguar::BugId> before(reference.fired_bugs.begin(),
                                       reference.fired_bugs.end());
  std::vector<jaguar::BugId> out;
  for (jaguar::BugId bug : run.fired_bugs) {
    if (before.count(bug) == 0) {
      out.push_back(bug);
    }
  }
  return out;
}

struct Tracer {
  SpanRecorder* recorder;
  std::string item;
  ReplayCounts* counts;

  template <typename F>
  auto Call(const char* name, F&& f) {
    ScopedSpan span(recorder, name, item);
    return f();
  }

  RunOutcome Run(const char* name, const jaguar::BcProgram& program,
                 const jaguar::VmConfig& config) {
    ScopedSpan span(recorder, name, item);
    RunOutcome outcome = jaguar::RunProgram(program, config);
    span.set_steps(outcome.steps);
    counts->steps_all += outcome.steps;
    return outcome;
  }

  artemis::TriageReport Triage(const jaguar::Program& program, const jaguar::VmConfig& vm,
                               const artemis::TriageParams& params) {
    artemis::TriageReport report =
        Call("TriageDiscrepancy", [&] { return TriageDiscrepancy(program, vm, params); });
    ++counts->triage_calls;
    counts->triage_runs += report.runs;
    counts->triage_attributed += report.attributed() ? 1 : 0;
    return report;
  }
};

// Mirrors artemis::Validate (validate/validator.cc) call for call, with the same verdict
// rules and detail strings, so the reduced digest matches the untraced run's.
artemis::ValidationReport ReplayValidate(const jaguar::Program& seed,
                                         const jaguar::VmConfig& vm_config,
                                         const artemis::ValidatorParams& params,
                                         jaguar::Rng& rng, Tracer& t) {
  artemis::ValidationReport report;
  const jaguar::VmConfig jit_config = params.compile.mode == jaguar::CompileMode::kSync
                                          ? vm_config
                                          : vm_config.WithCompile(params.compile);

  const jaguar::BcProgram seed_bc =
      t.Call("CompileProgram", [&] { return jaguar::CompileProgram(seed); });
  report.seed_interp = t.Run("RunProgram.interp", seed_bc, jaguar::InterpreterOnlyConfig());
  report.seed_jit = t.Run("RunProgram.jit", seed_bc, jit_config);
  if (report.seed_interp.status == RunStatus::kTimeout ||
      report.seed_jit.status == RunStatus::kTimeout) {
    report.seed_usable = false;
    report.seed_unusable_reason = "seed exceeded the step budget";
    return report;
  }
  report.seed_self_discrepancy = !report.seed_jit.SameObservable(report.seed_interp);

  for (int k = 0; k < params.stress_seeds; ++k) {
    artemis::StressVerdict point;
    point.stress_seed = jaguar::DeriveStressSeed(params.stress_seed_base, 0, k);
    point.outcome = t.Run("RunProgram.stress", seed_bc,
                          jit_config.WithStressSeed(point.stress_seed));
    ++t.counts->stress_points;
    const RunOutcome& stressed = point.outcome;
    point.suspected_bugs = NewlyFired(stressed, report.seed_jit);
    if (stressed.status == RunStatus::kTimeout) {
      if (report.seed_interp.status == RunStatus::kOk &&
          report.seed_interp.steps * 4 < stressed.steps) {
        point.kind = DiscrepancyKind::kPerformance;
        point.detail = "stressed JIT execution exhausted the budget; interpretation finished in " +
                       std::to_string(report.seed_interp.steps) + " steps";
      } else {
        point.discarded = true;
        point.detail = "stress point exceeded the step budget";
      }
    } else if (!stressed.SameObservable(report.seed_jit)) {
      if (stressed.status == RunStatus::kVmCrash ||
          report.seed_jit.status == RunStatus::kVmCrash) {
        point.kind = DiscrepancyKind::kCrash;
        point.detail = std::string(jaguar::ComponentName(stressed.crash_component)) + " (" +
                       stressed.crash_kind + "): " + stressed.crash_message;
      } else {
        point.kind = DiscrepancyKind::kMisCompilation;
        point.detail = "output diverged from the seed's default JIT-trace run under stress";
      }
    } else if (params.perf_ratio > 0 && report.seed_interp.status == RunStatus::kOk &&
               stressed.steps > params.perf_ratio * report.seed_interp.steps &&
               stressed.steps > report.seed_interp.steps + params.perf_floor &&
               !(report.seed_jit.steps > params.perf_ratio * report.seed_interp.steps &&
                 report.seed_jit.steps > report.seed_interp.steps + params.perf_floor)) {
      point.kind = DiscrepancyKind::kPerformance;
      point.detail = "stressed JIT used " + std::to_string(stressed.steps) + " steps vs " +
                     std::to_string(report.seed_interp.steps) + " interpreted";
    }
    report.stress_points.push_back(std::move(point));
  }

  for (int i = 0; i < params.max_iter; ++i) {
    artemis::MutantVerdict verdict;
    artemis::MutationResult mutation =
        t.Call("JoNM", [&] { return artemis::JoNM(seed, params.jonm, rng); });
    verdict.mutations = mutation.applied;
    ++t.counts->mutants;
    const jaguar::BcProgram mutant_bc =
        t.Call("CompileProgram", [&] { return jaguar::CompileProgram(mutation.mutant); });

    RunOutcome mutant_interp;
    if (params.neutrality_check || params.perf_ratio > 0) {
      mutant_interp = t.Run("RunProgram.interp", mutant_bc, jaguar::InterpreterOnlyConfig());
      if (mutant_interp.status == RunStatus::kTimeout) {
        verdict.discarded = true;
        verdict.detail = "mutant exceeded the step budget under interpretation";
        ++t.counts->discard_interp_timeout;
        t.counts->steps_discarded += mutant_interp.steps;
        report.mutants.push_back(std::move(verdict));
        continue;
      }
      if (params.neutrality_check && !mutant_interp.SameObservable(report.seed_interp)) {
        verdict.discarded = true;
        verdict.non_neutral = true;
        verdict.detail = "mutation was not semantics-preserving (tool defect, not a VM bug)";
        ++t.counts->discard_non_neutral;
        t.counts->steps_discarded += mutant_interp.steps;
        report.mutants.push_back(std::move(verdict));
        continue;
      }
    }

    verdict.outcome = t.Run("RunProgram.jit", mutant_bc, jit_config);
    const RunOutcome& mutant_jit = verdict.outcome;
    verdict.explored_new_trace = !mutant_jit.trace.SameShape(report.seed_jit.trace);
    verdict.suspected_bugs = NewlyFired(mutant_jit, report.seed_jit);

    if (mutant_jit.status == RunStatus::kTimeout) {
      if (mutant_interp.status == RunStatus::kOk &&
          mutant_interp.steps * 4 < mutant_jit.steps) {
        verdict.kind = DiscrepancyKind::kPerformance;
        verdict.detail = "JIT execution exhausted the budget; interpretation finished in " +
                         std::to_string(mutant_interp.steps) + " steps";
        verdict.mutant_program =
            std::make_shared<const jaguar::Program>(std::move(mutation.mutant));
      } else {
        verdict.discarded = true;
        verdict.detail = "mutant exceeded the step budget";
        ++t.counts->discard_jit_timeout;
        t.counts->steps_discarded += mutant_interp.steps + mutant_jit.steps;
      }
      t.counts->new_trace += verdict.explored_new_trace ? 1 : 0;
      report.mutants.push_back(std::move(verdict));
      continue;
    }
    t.counts->new_trace += verdict.explored_new_trace ? 1 : 0;

    if (!mutant_jit.SameObservable(report.seed_jit)) {
      if (mutant_jit.status == RunStatus::kVmCrash ||
          report.seed_jit.status == RunStatus::kVmCrash) {
        verdict.kind = DiscrepancyKind::kCrash;
        verdict.detail = std::string(jaguar::ComponentName(mutant_jit.crash_component)) +
                         " (" + mutant_jit.crash_kind + "): " + mutant_jit.crash_message;
      } else {
        verdict.kind = DiscrepancyKind::kMisCompilation;
        verdict.detail = "output diverged from the seed's default JIT-trace run";
      }
      verdict.mutant_program =
          std::make_shared<const jaguar::Program>(std::move(mutation.mutant));
      report.mutants.push_back(std::move(verdict));
      continue;
    }
    if (params.perf_ratio > 0 && mutant_interp.status == RunStatus::kOk &&
        mutant_jit.steps > params.perf_ratio * mutant_interp.steps &&
        mutant_jit.steps > mutant_interp.steps + params.perf_floor) {
      verdict.kind = DiscrepancyKind::kPerformance;
      verdict.detail = "JIT used " + std::to_string(mutant_jit.steps) + " steps vs " +
                       std::to_string(mutant_interp.steps) + " interpreted";
      verdict.mutant_program =
          std::make_shared<const jaguar::Program>(std::move(mutation.mutant));
    }
    if (params.keep_new_trace_mutants && verdict.explored_new_trace &&
        verdict.mutant_program == nullptr) {
      verdict.mutant_program =
          std::make_shared<const jaguar::Program>(std::move(mutation.mutant));
    }
    report.mutants.push_back(std::move(verdict));
  }
  return report;
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(Now()) {}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::ThreadNumber() {
  const uint64_t id = std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto it = threads_.find(id);
  if (it == threads_.end()) {
    it = threads_.emplace(id, static_cast<int>(threads_.size())).first;
  }
  return it->second;
}

int SpanRecorder::Begin(const std::string& name, const std::string& item) {
  Span span;
  span.name = name;
  span.item = item;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  span.thread = ThreadNumber();
  span.start_ns = Now() - origin_ns_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void SpanRecorder::End(int index, uint64_t steps) {
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = Now() - origin_ns_;
  span.steps = steps;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  for (const Span& span : spans()) {
    jaguar::Json line = jaguar::Json::Object();
    line.Set("name", span.name);
    line.Set("start_ns", span.start_ns);
    line.Set("end_ns", span.end_ns);
    line.Set("parent", span.parent);
    line.Set("item", span.item);
    line.Set("thread", span.thread);
    if (span.steps > 0) {
      line.Set("steps", span.steps);
    }
    out += line.Dump() + "\n";
  }
  return out;
}

void ReplayCounts::Add(const ReplayCounts& o) {
  mutants += o.mutants;
  discard_interp_timeout += o.discard_interp_timeout;
  discard_jit_timeout += o.discard_jit_timeout;
  discard_non_neutral += o.discard_non_neutral;
  new_trace += o.new_trace;
  stress_points += o.stress_points;
  steps_all += o.steps_all;
  steps_discarded += o.steps_discarded;
  triage_calls += o.triage_calls;
  triage_runs += o.triage_runs;
  triage_attributed += o.triage_attributed;
}

artemis::SeedShardResult ReplaySeedShard(const jaguar::VmConfig& vm_config,
                                         const artemis::CampaignParams& params, int ordinal,
                                         SpanRecorder* recorder, ReplayCounts* counts) {
  // Mirrors artemis::RunSeedShard (campaign/shard.cc).
  artemis::SeedShardResult result;
  result.seed_id = params.base_seed + static_cast<uint64_t>(ordinal);
  Tracer t{recorder, vm_config.name + "/" + std::to_string(result.seed_id), counts};
  ScopedSpan shard_span(recorder, "RunSeedShard", t.item);

  jaguar::Rng rng = artemis::SeedRngFor(result.seed_id);
  const jaguar::Program seed = t.Call(
      "GenerateProgram", [&] { return artemis::GenerateProgram(params.fuzz, result.seed_id); });
  artemis::ValidatorParams vparams = params.validator;
  if (vparams.stress_seeds > 0) {
    vparams.stress_seed_base = jaguar::StressMix(params.base_seed, result.seed_id);
  }
  if (vparams.compile.mode == jaguar::CompileMode::kScheduled) {
    vparams.compile.schedule_seed = jaguar::DeriveScheduleSeed(params.base_seed, result.seed_id);
  }
  result.compile = vparams.compile;
  result.report = ReplayValidate(seed, vm_config, vparams, rng, t);

  if (params.triage && result.report.seed_usable) {
    artemis::TriageParams triage_params = params.triage_params;
    triage_params.compile = vparams.compile;
    if (result.report.seed_self_discrepancy) {
      result.seed_triage = t.Triage(seed, vm_config, triage_params);
      result.seed_triaged = true;
    }
    for (size_t i = 0; i < result.report.mutants.size(); ++i) {
      const artemis::MutantVerdict& verdict = result.report.mutants[i];
      if (verdict.kind == DiscrepancyKind::kNone || !verdict.mutant_program) {
        continue;
      }
      result.triaged_mutants.push_back(
          {i, t.Triage(*verdict.mutant_program, vm_config, triage_params)});
    }
    for (size_t i = 0; i < result.report.stress_points.size(); ++i) {
      const artemis::StressVerdict& point = result.report.stress_points[i];
      if (point.kind == DiscrepancyKind::kNone) {
        continue;
      }
      artemis::TriageParams stress_triage = triage_params;
      stress_triage.stress = vm_config.stress;
      stress_triage.stress.enabled = true;
      stress_triage.stress.seed = point.stress_seed;
      result.triaged_stress.push_back({i, t.Triage(seed, vm_config, stress_triage)});
    }
  }
  return result;
}

std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    out[spans[i].name] += static_cast<double>(self) / 1e9;
  }
  return out;
}

}  // namespace perfbench

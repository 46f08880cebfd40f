// Model-checker tests: three-source count agreement (spec fold vs the
// hand-written static analysis; the runtime CostLedger side lives in
// conformance_test.cc), exhaustive baseline safety over every commit variant,
// state-hash determinism at any thread count, the frontier's byte encoding,
// counterexample minimization, and the seeded spec-mutation kill suite.
#include "src/analysis/model_checker.h"

#include <climits>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/protocol_spec.h"
#include "src/analysis/static_analysis.h"
#include "src/stats/cost_ledger.h"

namespace camelot {
namespace {

struct VariantCase {
  const char* label;
  CommitOptions options;
};

std::vector<VariantCase> AllVariants() {
  return {
      {"2pc", CommitOptions::Optimized()},
      {"2pc-unopt", CommitOptions::Unoptimized()},
      {"2pc-int", CommitOptions::Intermediate()},
      {"nbc", CommitOptions::NonBlocking()},
      {"paxos-f0", CommitOptions::Paxos(0)},
      {"paxos-f1", CommitOptions::Paxos(1)},
      {"paxos-f2", CommitOptions::Paxos(2)},
  };
}

// The tentpole equality: folding the declarative spec along its fault-free
// path must reproduce the hand-derived ExpectedProtocolCounts in EVERY cell
// of the {variant, sub mix, locality, outcome} matrix. Two independently
// written sources, one truth.
TEST(SpecFold, MatchesHandAnalysisAcrossFullMatrix) {
  for (const VariantCase& variant : AllVariants()) {
    for (int u = 0; u <= 3; ++u) {
      for (int r = 0; r <= 3; ++r) {
        for (const bool local : {true, false}) {
          for (const TxnOutcome outcome : {TxnOutcome::kCommit, TxnOutcome::kAbort}) {
            SpecScenario sc;
            sc.options = variant.options;
            sc.update_subs = u;
            sc.readonly_subs = r;
            sc.local_updates = local;
            sc.outcome = outcome;
            SpecMachine machine(sc, SpecKnobs{});
            const SpecMachine::FoldResult fold = machine.FoldFaultFree();
            ASSERT_TRUE(fold.complete)
                << variant.label << " " << sc.Label() << ": " << fold.detail;
            const CountVector expected = ExpectedProtocolCounts(
                variant.options, u, r, local, outcome);
            EXPECT_EQ(fold.counts, expected)
                << variant.label << " " << sc.Label() << "\n"
                << CostLedger::Diff(expected, fold.counts);
          }
        }
      }
    }
  }
}

// The scenario label the checker CLI prints and the soak tier keys its
// dedup on: the variant's ProtocolName (Paxos with its F), the subordinate
// mix, locality and outcome.
TEST(SpecScenarioTest, LabelNamesEveryVariant) {
  const auto label = [](CommitOptions options, int u, int r, bool local, TxnOutcome outcome) {
    SpecScenario sc;
    sc.options = options;
    sc.update_subs = u;
    sc.readonly_subs = r;
    sc.local_updates = local;
    sc.outcome = outcome;
    return sc.Label();
  };
  const TxnOutcome kC = TxnOutcome::kCommit;
  const TxnOutcome kA = TxnOutcome::kAbort;
  EXPECT_EQ(label(CommitOptions::Optimized(), 2, 1, false, kC), "2pc u=2 r=1 L=0 commit");
  EXPECT_EQ(label(CommitOptions::Unoptimized(), 0, 3, true, kC), "2pc-unopt u=0 r=3 L=1 commit");
  EXPECT_EQ(label(CommitOptions::Intermediate(), 1, 0, true, kA), "2pc-int u=1 r=0 L=1 abort");
  EXPECT_EQ(label(CommitOptions::NonBlocking(), 3, 0, true, kA), "nbc u=3 r=0 L=1 abort");
  EXPECT_EQ(label(CommitOptions::Paxos(2), 2, 1, false, kC), "paxos(F=2) u=2 r=1 L=0 commit");
  EXPECT_EQ(label(CommitOptions::Paxos(0), 1, 1, true, kC), "paxos(F=0) u=1 r=1 L=1 commit");
}

struct SafetyCase {
  const char* label;
  const char* variant;
  uint32_t paxos_f;
  int updates;
  int readonly;
  TxnOutcome outcome;
  SpecBounds bounds;
  bool termination;
};

SpecScenario ScenarioFor(const SafetyCase& c) {
  SpecScenario sc;
  sc.options = *ParseProtocolName(c.variant);
  sc.options.paxos_f = c.paxos_f;  // 0 for every variant but paxos.
  sc.update_subs = c.updates;
  sc.readonly_subs = c.readonly;
  sc.outcome = c.outcome;
  return sc;
}

SpecBounds Bounds(int crashes, int losses, int novotes, int takeovers) {
  SpecBounds b;
  b.max_crashes = crashes;
  b.max_losses = losses;
  b.max_no_votes = novotes;
  b.max_takeover_rounds = takeovers;
  return b;
}

// Every variant verified EXHAUSTIVELY within its quick-tier fault budget —
// including at least one crash for the takeover protocols (nbc / paxos).
// State counts stay under ~15k per configuration, so this is cheap.
std::vector<SafetyCase> QuickSafetyCases() {
  return {
      {"2pc-full-faults", "2pc", 0, 1, 1, TxnOutcome::kCommit, Bounds(1, 1, 1, 1), false},
      {"2pc-abort", "2pc", 0, 1, 1, TxnOutcome::kAbort, Bounds(1, 1, 1, 1), false},
      {"2pc-unopt-full-faults", "2pc-unopt", 0, 1, 1, TxnOutcome::kCommit,
       Bounds(1, 1, 1, 1), false},
      {"2pc-int-full-faults", "2pc-int", 0, 1, 1, TxnOutcome::kCommit, Bounds(1, 1, 1, 1),
       false},
      {"nbc-crash-takeover", "nbc", 0, 1, 0, TxnOutcome::kCommit, Bounds(1, 0, 0, 1), true},
      {"nbc-crash-no-takeover", "nbc", 0, 1, 1, TxnOutcome::kCommit, Bounds(1, 0, 0, 0),
       true},
      {"paxos-crash", "paxos", 1, 2, 0, TxnOutcome::kCommit, Bounds(1, 0, 0, 0), true},
  };
}

TEST(ModelChecker, BaselineSafetyExhaustive) {
  for (const SafetyCase& c : QuickSafetyCases()) {
    CheckerOptions opt;
    opt.bounds = c.bounds;
    opt.check_termination = c.termination;
    SpecMachine machine(ScenarioFor(c), SpecKnobs{});
    const CheckResult res = CheckSpec(machine, opt);
    EXPECT_TRUE(res.ok) << c.label << ": "
                        << (res.violation.has_value() ? res.violation->invariant : "")
                        << "\n"
                        << (res.violation.has_value() ? res.violation->detail : "");
    EXPECT_TRUE(res.complete) << c.label << " should exhaust within "
                              << opt.max_states << " states, saw " << res.states;
  }
}

// The canonical-state digest is a function of the reachable graph alone:
// two runs of the same configuration agree bit-for-bit on digest and on
// every exploration counter. (BFS discovery order is deterministic because
// ForEachSuccessor's order is and the merge follows frontier order, and the
// fingerprint dedup is a pure function of the canonical bytes;
// ModelCheckerDigest below pins the values themselves.)
TEST(ModelChecker, StateDigestDeterministicAcrossRuns) {
  for (const SafetyCase& c : QuickSafetyCases()) {
    CheckerOptions opt;
    opt.bounds = c.bounds;
    opt.check_termination = c.termination;
    SpecMachine machine(ScenarioFor(c), SpecKnobs{});
    const CheckResult first = CheckSpec(machine, opt);
    SpecMachine again(ScenarioFor(c), SpecKnobs{});
    const CheckResult second = CheckSpec(again, opt);
    EXPECT_EQ(first.digest, second.digest) << c.label;
    EXPECT_EQ(first.states, second.states) << c.label;
    EXPECT_EQ(first.transitions, second.transitions) << c.label;
    EXPECT_EQ(first.dedup_hits, second.dedup_hits) << c.label;
  }
}

// Exploration pins. The encoding, the dedup structure and the move order
// decide which states the BFS visits and in which order, so a change to any
// of them must leave every counter and the canonical-state digest as they
// were. The last pin is the benchmark's modelcheck_nbc space.
struct SpacePin {
  size_t states;
  size_t transitions;
  size_t dedup_hits;
  uint64_t digest;
};

void ExpectPinned(const std::string& label, const CheckResult& res, const SpacePin& pin) {
  EXPECT_TRUE(res.ok && res.complete) << label << ": " << res.Summary();
  EXPECT_TRUE(res.states == pin.states && res.transitions == pin.transitions &&
              res.dedup_hits == pin.dedup_hits && res.digest == pin.digest)
      << label << " explored a different space: {" << res.states << ", " << res.transitions
      << ", " << res.dedup_hits << ", 0x" << std::hex << res.digest << "}";
}

TEST(ModelCheckerDigest, QuickSafetyCasesExplorePinnedSpaces) {
  const std::vector<SafetyCase> cases = QuickSafetyCases();
  const SpacePin pins[] = {
      {6825, 21998, 15174, 0xf4a1e4b645512ca9ULL},
      {300, 936, 637, 0xb04c260ee5b5671dULL},
      {6651, 21506, 14856, 0x8201b6f083c3ca7cULL},
      {6897, 22124, 15228, 0x1efc83204265667bULL},
      {13656, 26993, 13338, 0x966c9874faf43173ULL},
      {448, 1029, 582, 0xf4ec574bea77ae7dULL},
      {4071, 12443, 8373, 0x27e6627a86211b8bULL},
  };
  ASSERT_EQ(cases.size(), std::size(pins));
  for (size_t i = 0; i < cases.size(); ++i) {
    CheckerOptions opt;
    opt.bounds = cases[i].bounds;
    opt.check_termination = cases[i].termination;
    ExpectPinned(cases[i].label, CheckSpec(SpecMachine(ScenarioFor(cases[i])), opt), pins[i]);
  }
}

SpecScenario BenchmarkScenario() {
  SpecScenario sc;
  sc.options = CommitOptions::NonBlocking();
  sc.update_subs = 1;
  sc.readonly_subs = 1;
  return sc;
}

CheckerOptions BenchmarkOptions() {
  CheckerOptions opt;
  opt.bounds.max_takeover_rounds = 1;
  opt.bounds.max_total_takeovers = 1;
  opt.max_states = 2000000;
  opt.check_termination = true;
  return opt;
}

TEST(ModelCheckerDigest, BenchmarkSpaceExploresPinnedSpace) {
  ExpectPinned("modelcheck_nbc", CheckSpec(SpecMachine(BenchmarkScenario()), BenchmarkOptions()),
               {204350, 556545, 352196, 0x7f7074d19840f9ccULL});
}

// FNV-1a over everything a violation renders: invariant, detail, trace (move
// labels with their effect notes), state dump and replay recipe.
uint64_t ReportHash(const Violation& v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& text) {
    for (const unsigned char c : text) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
    h = (h ^ '\n') * 0x100000001b3ULL;
  };
  mix(v.invariant);
  mix(v.detail);
  for (const std::string& line : v.trace) {
    mix(line);
  }
  mix(v.state_dump);
  mix(v.replay);
  return h;
}

// One report hash per seeded mutation. It guards the effect bookkeeping that
// only these reports read.
TEST(ModelCheckerDigest, SeededMutationReportsMatchPinnedHashes) {
  const std::map<std::string, uint64_t> pins = {
      {"2pc-drop-coordinator-commit-force", 0x891fd4fc40236163ULL},
      {"2pc-drop-subordinate-prepare-force", 0x2728249aa817f727ULL},
      {"2pc-drop-subordinate-ack-force", 0x859732ec6534f93fULL},
      {"2pc-presume-commit-on-unknown", 0xcf3638e9d9af8d2eULL},
      {"2pc-unopt-drop-subordinate-commit-force", 0x93b281b71233edbaULL},
      {"2pc-commit-despite-no-vote", 0xfc5f12ea69d56303ULL},
      {"2pc-retire-before-notify", 0xa328efe9792145baULL},
      {"nbc-weaken-replication-quorum", 0x03d12095baca042cULL},
      {"nbc-skip-promise-check", 0x888f1f631bfbc3bfULL},
      {"nbc-keep-locks-on-commit", 0x79034d14a3816daeULL},
      {"paxos-weaken-accept-quorum", 0x2af11be3161c579fULL},
      {"paxos-skip-promise-check", 0x53840a1404002905ULL},
      {"paxos-takeover-ignores-accepted-value", 0xe652d72f516ad948ULL},
      {"paxos-accept-incomplete-votes", 0xabdda3bc47205a77ULL},
  };
  for (const SeededMutation& m : SeededSpecMutations()) {
    CheckerOptions opt;
    opt.bounds = m.bounds;
    opt.max_states = 2000000;
    const CheckResult res = CheckSpec(SpecMachine(m.scenario, m.knobs), opt);
    ASSERT_TRUE(res.violation.has_value()) << m.name;
    const uint64_t h = ReportHash(*res.violation);
    const auto pin = pins.find(m.name);
    EXPECT_TRUE(pin != pins.end() && pin->second == h)
        << m.name << " renders a different violation (hash 0x" << std::hex << h << ")";
  }
}

// Sets CAMELOT_SWEEP_THREADS for the life of the object, then restores it.
class SweepThreads {
 public:
  explicit SweepThreads(const char* threads) {
    if (const char* old = std::getenv(kName); old != nullptr) {
      saved_ = old;
    }
    setenv(kName, threads, 1);
  }
  ~SweepThreads() {
    if (saved_.has_value()) {
      setenv(kName, saved_->c_str(), 1);
    } else {
      unsetenv(kName);
    }
  }
  SweepThreads(const SweepThreads&) = delete;
  SweepThreads& operator=(const SweepThreads&) = delete;

 private:
  static constexpr const char* kName = "CAMELOT_SWEEP_THREADS";
  std::optional<std::string> saved_;
};

// CheckSpec expands frontier batches on CAMELOT_SWEEP_THREADS threads and
// merges them in frontier order, so one thread and four explore the same
// states in the same order: the pinned spaces, and a seeded mutation whose
// violation lands mid-level after some 50k states, report identical
// summaries and identical violation reports. Two more spaces end while
// chunks are still in flight, and are pinned at one to four threads: the
// benchmark space at a 100,000-state cap, and the same space with a crash,
// whose termination check fails (the only pinned run that merges a failed
// termination check).
TEST(ModelCheckerDigest, ExplorationIsTheSameAtOneAndFourThreads) {
  const std::vector<SafetyCase> cases = QuickSafetyCases();
  const SeededMutation* mutation = nullptr;
  const std::vector<SeededMutation> mutations = SeededSpecMutations();
  for (const SeededMutation& m : mutations) {
    if (m.name == "nbc-weaken-replication-quorum") {
      mutation = &m;
    }
  }
  ASSERT_NE(mutation, nullptr);
  const auto explore = [&](const char* threads) {
    const SweepThreads set(threads);
    std::vector<std::string> out;
    for (const SafetyCase& c : cases) {
      CheckerOptions opt;
      opt.bounds = c.bounds;
      opt.check_termination = c.termination;
      out.push_back(CheckSpec(SpecMachine(ScenarioFor(c)), opt).Summary());
    }
    out.push_back(CheckSpec(SpecMachine(BenchmarkScenario()), BenchmarkOptions()).Summary());
    CheckerOptions opt;
    opt.bounds = mutation->bounds;
    opt.max_states = 2000000;
    const CheckResult res = CheckSpec(SpecMachine(mutation->scenario, mutation->knobs), opt);
    out.push_back(res.Summary());
    out.push_back(res.violation.has_value() ? std::to_string(ReportHash(*res.violation)) : "");
    return out;
  };
  const std::vector<std::string> one = explore("1");
  const std::vector<std::string> four = explore("4");
  EXPECT_EQ(one, four);
  EXPECT_EQ(one.size(), cases.size() + 3);
  EXPECT_NE(one.back(), "");

  CheckerOptions capped = BenchmarkOptions();
  capped.max_states = 100000;
  CheckerOptions crash = BenchmarkOptions();
  crash.bounds.max_crashes = 1;
  std::optional<uint64_t> report;
  for (const char* threads : {"1", "2", "3", "4"}) {
    const SweepThreads set(threads);
    EXPECT_EQ(CheckSpec(SpecMachine(BenchmarkScenario()), capped).Summary(),
              "ok (bounded): states=100000 transitions=272210 dedup=172211 "
              "digest=dd55bcb6e1071494")
        << threads << " threads";
    const CheckResult res = CheckSpec(SpecMachine(BenchmarkScenario()), crash);
    EXPECT_EQ(res.Summary(),
              "VIOLATION: states=133546 transitions=355413 dedup=221868 digest=9e6833d6960980ae "
              "[non-blocking] terminal state leaves live p0 undecided in phase prepared")
        << threads << " threads";
    ASSERT_TRUE(res.violation.has_value()) << threads << " threads";
    if (!report.has_value()) {
      report = ReportHash(*res.violation);
    }
    EXPECT_EQ(ReportHash(*res.violation), *report) << threads << " threads";
  }
}

// The frontier holds canonical bytes and expands Decode(bytes), so Decode
// must invert Canonical on every reachable state: a 2PC space with a crash,
// a loss and a no vote, and an NBC space with a crash and a takeover.
TEST(ModelCheckerDigest, DecodeInvertsCanonicalOnEveryReachableState) {
  const std::vector<SafetyCase> cases = QuickSafetyCases();
  for (const char* label : {"2pc-full-faults", "nbc-crash-takeover"}) {
    const SafetyCase* c = nullptr;
    for (const SafetyCase& sc : cases) {
      if (std::string(sc.label) == label) {
        c = &sc;
      }
    }
    ASSERT_NE(c, nullptr) << label;
    const SpecMachine m(ScenarioFor(*c));
    std::vector<std::string> frontier = {m.Canonical(m.Initial())};
    std::unordered_set<std::string> seen(frontier.begin(), frontier.end());
    SpecScratch scratch;
    SpecState decoded;
    size_t mismatches = 0;
    while (!frontier.empty()) {
      const std::string bytes = std::move(frontier.back());
      frontier.pop_back();
      m.Decode(bytes, &decoded);
      mismatches += m.Canonical(decoded) == bytes ? 0 : 1;
      m.ForEachSuccessor(decoded, bytes, c->bounds, &scratch,
                         [&](const SpecMove&, const SpecState&, std::string_view next) {
                           if (seen.emplace(next).second) {
                             frontier.emplace_back(next);
                           }
                           return true;
                         });
    }
    EXPECT_EQ(mismatches, 0u) << label;
    // Every state the checker explores (ModelCheckerDigest's pins).
    EXPECT_EQ(seen.size(), std::string(label) == "2pc-full-faults" ? 6825u : 13656u) << label;
  }
}

// A model the encoding cannot hold is a caller error, never a silently
// smaller check: 17 processes overflow the 16-bit masks, takeover rounds
// past 15 (also from a per-process budget of INT_MAX) overflow the one-byte
// epochs, and so does round 15 with 16 processes, whose epoch 255 plus one
// (a status reply's accepted field) would read as "nothing accepted".
TEST(ModelCheckerDeathTest, RejectsModelsTheEncodingCannotHold) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SpecScenario sc;
  sc.options = CommitOptions::NonBlocking();
  sc.update_subs = kSpecMaxProcs;
  EXPECT_DEATH(SpecMachine{sc}, "CHECK failed.*kSpecMaxProcs");
  sc.update_subs = 1;
  CheckerOptions opt;
  opt.bounds.max_takeover_rounds = kSpecMaxRound + 1;
  EXPECT_DEATH(CheckSpec(SpecMachine(sc), opt), "CHECK failed.*kSpecMaxRound");
  opt.bounds.max_takeover_rounds = INT_MAX;  // Plus the other processes' rounds.
  EXPECT_DEATH(CheckSpec(SpecMachine(sc), opt), "CHECK failed.*kSpecMaxRound");
  sc.update_subs = kSpecMaxProcs - 1;
  opt.bounds.max_takeover_rounds = 1;
  opt.bounds.max_total_takeovers = kSpecMaxRound;
  EXPECT_DEATH(CheckSpec(SpecMachine(sc), opt), "CHECK failed.*EpochsFitOneByte");
}

// Minimization: counterexamples come back short enough for a human. The raw
// BFS trace is already shortest-path; greedy move-dropping then strips the
// irrelevant interleaving prefix. A 2PC commit needs ~11 fault-free steps,
// so any single-fault violation should minimize well under 20 moves.
TEST(ModelChecker, CounterexamplesAreMinimized) {
  for (const SeededMutation& m : SeededSpecMutations()) {
    if (m.name != "2pc-retire-before-notify") {
      continue;
    }
    CheckerOptions opt;
    opt.bounds = m.bounds;
    SpecMachine mutant(m.scenario, m.knobs);
    const CheckResult res = CheckSpec(mutant, opt);
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_LE(res.violation->trace.size(), 20u);
    EXPECT_FALSE(res.violation->state_dump.empty());
    // Dropping any single remaining move must break the violation — that is
    // the fixpoint MinimizeTrace guarantees — so the trace is 1-minimal.
  }
}

// The kill suite: every seeded spec weakening must produce a violation whose
// invariant name is one the mutation declares. Control runs (same scenario
// and bounds, faithful knobs) are bounded here and exhaustively re-verified
// in the soak tier; the cheap full-budget controls are BaselineSafetyExhaustive
// above.
TEST(ModelCheckerKillSuite, EverySeededMutationDies) {
  const std::vector<SeededMutation> mutations = SeededSpecMutations();
  ASSERT_GE(mutations.size(), 10u);
  int with_replay = 0;
  for (const SeededMutation& m : mutations) {
    CheckerOptions opt;
    opt.bounds = m.bounds;
    opt.max_states = 2000000;
    SpecMachine mutant(m.scenario, m.knobs);
    const CheckResult res = CheckSpec(mutant, opt);
    ASSERT_FALSE(res.ok) << m.name << " survived: " << m.description;
    bool named = false;
    for (const std::string& inv : m.expected_invariants) {
      named = named || res.violation->invariant == inv;
    }
    EXPECT_TRUE(named) << m.name << " died of unexpected invariant "
                       << res.violation->invariant << ": " << res.violation->detail;
    EXPECT_FALSE(res.violation->trace.empty()) << m.name;
    // A replay recipe is only emitted when every trace step maps onto a
    // runtime failpoint (knob-only mutations have no runtime schedule); when
    // one exists it must name the variant.
    if (!res.violation->replay.empty()) {
      ++with_replay;
      EXPECT_NE(res.violation->replay.find("CAMELOT_PROTOCOL="), std::string::npos)
          << m.name << " malformed replay recipe: " << res.violation->replay;
    }

    // Shallow control: the same scenario with faithful knobs shows no
    // violation in the first 150k states.
    CheckerOptions control_opt;
    control_opt.bounds = m.bounds;
    control_opt.max_states = 150000;
    SpecMachine control(m.scenario, SpecKnobs{});
    const CheckResult control_res = CheckSpec(control, control_opt);
    EXPECT_TRUE(control_res.ok)
        << m.name << " control failed: "
        << (control_res.violation.has_value() ? control_res.violation->detail : "");
  }
  // Most mutations (all force-drops and protocol-rule weakenings reachable
  // through failpoints) must come back with a concrete replay recipe.
  EXPECT_GE(with_replay, static_cast<int>(mutations.size()) / 2) << with_replay;
}

}  // namespace
}  // namespace camelot

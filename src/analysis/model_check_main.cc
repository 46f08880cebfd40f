// camelot_model_check: explicit-state safety checking for the commit specs.
//
//   camelot_model_check --variant=paxos --f=1 --updates=2 --crashes=1
//       --takeovers=1 --termination
//   camelot_model_check --mutations          # run the seeded kill suite
//
// Exit status: 0 = every requested check passed, 1 = violation (or a
// mutation the checker failed to kill), 2 = bad usage. CAMELOT_SWEEP_THREADS
// sets how many threads expand the frontier; it changes no output.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/analysis/model_checker.h"
#include "src/analysis/protocol_spec.h"

namespace {

struct Args {
  std::string variant = "2pc";
  int f = 1;
  int updates = 1;
  int readonly = 1;
  bool local = true;
  std::string outcome = "commit";
  int crashes = 0;
  int losses = 0;
  int novotes = 0;
  int takeovers = 1;
  int total_takeovers = 1000;
  size_t max_states = 400000;
  bool termination = false;
  bool mutations = false;
  bool quiet = false;
};

// Every numeric flag is a count: a decimal integer in [0, INT_MAX].
bool ParseInt(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);  // Clamps out-of-range input to LONG_MIN/MAX.
  if (end == s || *end != '\0' || v < 0 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

void Usage() {
  std::fprintf(stderr,
               "usage: camelot_model_check [--variant=2pc|2pc-unopt|2pc-int|nbc|paxos]\n"
               "  [--f=N] [--updates=N] [--readonly=N] [--local=0|1]\n"
               "  [--outcome=commit|abort] [--crashes=N] [--losses=N] [--novotes=N]\n"
               "  [--takeovers=N] [--total-takeovers=N] [--max-states=N]\n"
               "  [--termination] [--quiet]\n"
               "  [--mutations]\n"
               "The frontier is expanded on CAMELOT_SWEEP_THREADS threads (default: the\n"
               "host's hardware threads, at most 16); output is the same at any count.\n");
}

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eat = [&](const char* name, std::string* value) {
      std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *value = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string v;
    int iv = 0;
    if (eat("variant", &v)) {
      a->variant = v;
    } else if (eat("f", &v) && ParseInt(v.c_str(), &iv)) {
      a->f = iv;
    } else if (eat("updates", &v) && ParseInt(v.c_str(), &iv)) {
      a->updates = iv;
    } else if (eat("readonly", &v) && ParseInt(v.c_str(), &iv)) {
      a->readonly = iv;
    } else if (eat("local", &v) && ParseInt(v.c_str(), &iv)) {
      a->local = iv != 0;
    } else if (eat("outcome", &v)) {
      a->outcome = v;
    } else if (eat("crashes", &v) && ParseInt(v.c_str(), &iv)) {
      a->crashes = iv;
    } else if (eat("losses", &v) && ParseInt(v.c_str(), &iv)) {
      a->losses = iv;
    } else if (eat("novotes", &v) && ParseInt(v.c_str(), &iv)) {
      a->novotes = iv;
    } else if (eat("takeovers", &v) && ParseInt(v.c_str(), &iv)) {
      a->takeovers = iv;
    } else if (eat("total-takeovers", &v) && ParseInt(v.c_str(), &iv)) {
      a->total_takeovers = iv;
    } else if (eat("max-states", &v) && ParseInt(v.c_str(), &iv)) {
      a->max_states = static_cast<size_t>(iv);
    } else if (arg == "--termination") {
      a->termination = true;
    } else if (arg == "--mutations") {
      a->mutations = true;
    } else if (arg == "--quiet") {
      a->quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument or count outside [0, %d]: %s\n", INT_MAX,
                   arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintViolation(const camelot::Violation& v) {
  std::printf("  invariant: %s\n  detail:    %s\n", v.invariant.c_str(), v.detail.c_str());
  std::printf("  trace (%zu moves):\n", v.trace.size());
  for (const std::string& step : v.trace) {
    std::printf("    %s\n", step.c_str());
  }
  if (!v.replay.empty()) {
    std::printf("  replay: %s\n", v.replay.c_str());
  }
  std::printf("  state:\n%s", v.state_dump.c_str());
}

int RunMutations(bool quiet) {
  int failures = 0;
  for (const camelot::SeededMutation& m : camelot::SeededSpecMutations()) {
    camelot::CheckerOptions opt;
    opt.bounds = m.bounds;
    opt.max_states = 2000000;
    camelot::SpecMachine mutant(m.scenario, m.knobs);
    camelot::CheckResult res = camelot::CheckSpec(mutant, opt);
    bool killed = !res.ok;
    bool named = false;
    if (killed) {
      for (const std::string& inv : m.expected_invariants) {
        named = named || res.violation->invariant == inv;
      }
    }
    // Control: the same scenario with faithful knobs must pass.
    camelot::SpecMachine control(m.scenario, camelot::SpecKnobs{});
    camelot::CheckResult control_res = camelot::CheckSpec(control, opt);

    const bool pass = killed && named && control_res.ok;
    if (!pass) {
      failures += 1;
    }
    std::printf("[%s] %s (%s)\n", pass ? "KILLED" : "MISSED", m.name.c_str(),
                res.ok ? "no violation"
                       : (res.violation->invariant + (control_res.ok ? "" : "; CONTROL FAILED"))
                             .c_str());
    if (!quiet && killed) {
      PrintViolation(*res.violation);
    }
  }
  std::printf("%s: mutation suite\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!Parse(argc, argv, &a)) {
    Usage();
    return 2;
  }
  if (a.mutations) {
    return RunMutations(a.quiet);
  }

  camelot::Result<camelot::CommitOptions> options = camelot::ParseProtocolName(a.variant);
  if (!options.ok()) {
    std::fprintf(stderr, "unknown variant: %s\n", a.variant.c_str());
    Usage();
    return 2;
  }
  camelot::SpecScenario sc;
  sc.options = *options;
  if (sc.options.protocol == camelot::CommitProtocol::kPaxos) {
    sc.options.paxos_f = static_cast<uint32_t>(a.f);
  }
  // Both counts are in [0, INT_MAX], so neither side overflows.
  if (a.updates > camelot::kSpecMaxProcs - 1 - a.readonly) {
    std::fprintf(stderr,
                 "the spec holds at most %d processes (the coordinator and %d "
                 "subordinates); --updates=%d --readonly=%d asks for %lld\n",
                 camelot::kSpecMaxProcs, camelot::kSpecMaxProcs - 1, a.updates, a.readonly,
                 1LL + a.updates + a.readonly);
    return 2;
  }
  sc.update_subs = a.updates;
  sc.readonly_subs = a.readonly;
  sc.local_updates = a.local;
  if (a.outcome == "commit") {
    sc.outcome = camelot::TxnOutcome::kCommit;
  } else if (a.outcome == "abort") {
    sc.outcome = camelot::TxnOutcome::kAbort;
  } else {
    std::fprintf(stderr, "unknown outcome: %s\n", a.outcome.c_str());
    return 2;
  }

  camelot::CheckerOptions opt;
  opt.bounds.max_crashes = a.crashes;
  opt.bounds.max_losses = a.losses;
  opt.bounds.max_no_votes = a.novotes;
  opt.bounds.max_takeover_rounds = a.takeovers;
  opt.bounds.max_total_takeovers = a.total_takeovers;
  opt.max_states = a.max_states;
  opt.check_termination = a.termination;

  camelot::SpecMachine machine(sc, camelot::SpecKnobs{});
  const int highest_round = machine.HighestRound(opt.bounds);
  if (highest_round > camelot::kSpecMaxRound) {
    std::fprintf(stderr,
                 "the spec encodes takeover rounds up to %d; --takeovers=%d "
                 "--total-takeovers=%d with %d processes can reach round %d\n",
                 camelot::kSpecMaxRound, a.takeovers, a.total_takeovers, sc.procs(),
                 highest_round);
    return 2;
  }
  if (!machine.EpochsFitOneByte(opt.bounds)) {
    std::fprintf(stderr,
                 "the spec encodes epochs (16 * round + process) up to 254 (a status reply "
                 "carries the accepted epoch + 1 in one byte); --takeovers=%d "
                 "--total-takeovers=%d with %d processes can reach round %d, epoch %d\n",
                 a.takeovers, a.total_takeovers, sc.procs(), highest_round,
                 16 * highest_round + sc.procs() - 1);
    return 2;
  }
  std::printf("checking %s crashes=%d losses=%d novotes=%d takeovers=%d termination=%d\n",
              sc.Label().c_str(), a.crashes, a.losses, a.novotes, a.takeovers,
              a.termination ? 1 : 0);

  // Fold the fault-free path first: a spec that cannot even complete
  // fault-free is broken regardless of what the checker says.
  camelot::SpecMachine::FoldResult fold = machine.FoldFaultFree();
  std::printf("fold: %s (%d steps)\n", fold.complete ? "complete" : "INCOMPLETE", fold.steps);
  if (!fold.complete) {
    std::printf("%s\n", fold.detail.c_str());
    return 1;
  }

  camelot::CheckResult res = camelot::CheckSpec(machine, opt);
  std::printf("%s\n", res.Summary().c_str());
  if (!res.ok) {
    PrintViolation(*res.violation);
    return 1;
  }
  return 0;
}

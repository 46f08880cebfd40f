// The machine-readable side of the two baselined benches, bench_engine and
// bench_overload: their --quick / --json=PATH flags and the single-line JSON
// object that scripts/compare_bench.py gates against the committed
// BENCH_<bench>.json. The gate picks its rule table from the "bench" key.
#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace camelot {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct BenchFlags {
  bool quick = false;     // --quick: shorter runs, for the CI perf-smoke job.
  std::string json_path;  // --json=PATH: also write the JSON line to PATH.
};

// Parses --quick and --json=PATH. Prints the usage line and returns false on
// any other argument.
inline bool ParseBenchFlags(int argc, char** argv, BenchFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      flags->quick = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      flags->json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json=PATH]\n", argv[0]);
      return false;
    }
  }
  return true;
}

// {"bench":"<bench>","quick":<bool>,"<metric>":<value>,...}, every value %.2f.
inline std::string JsonLine(const char* bench, bool quick, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"bench\":\"") + bench + "\",\"quick\":";
  out += quick ? "true" : "false";
  for (const Metric& m : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.2f", m.name.c_str(), m.value);
    out += buf;
  }
  out += "}";
  return out;
}

// Writes the JSON line to flags.json_path (when set) and prints it on a
// trailing "JSON: {...}" line. False if the file could not be written.
inline bool EmitJson(const char* bench, const BenchFlags& flags,
                     const std::vector<Metric>& metrics) {
  const std::string json = JsonLine(bench, flags.quick, metrics);
  if (!flags.json_path.empty()) {
    std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
      return false;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  std::printf("\nJSON: %s\n", json.c_str());
  return true;
}

}  // namespace camelot

#endif  // BENCH_BENCH_JSON_H_

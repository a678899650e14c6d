// Sidecar shared by the ChaosRunner benches (bench_chaos, bench_byzantine):
// BENCH_<name>.metrics.json accumulates one entry per run with its label,
// seed, fingerprint and full metric snapshot. Fingerprints cover state
// roots, metrics and trace, so two builds are byte-identical on a run
// exactly when `runs[].fingerprint` matches.
#pragma once

#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "chaos/runner.hpp"

namespace hc::bench {

/// Accumulates per-run snapshots; written when the binary exits.
class ChaosSidecar {
 public:
  explicit ChaosSidecar(std::string bench) : bench_(std::move(bench)) {}

  void capture(const chaos::RunResult& r) {
    char fingerprint[19];
    std::snprintf(fingerprint, sizeof fingerprint, "0x%016" PRIx64,
                  r.fingerprint);
    runs_.push_back("    {\"label\": \"" +
                    obs::json_escape(r.scenario + "/seed-" +
                                     std::to_string(r.seed)) +
                    "\", \"seed\": " + std::to_string(r.seed) +
                    ", \"fingerprint\": \"" + fingerprint +
                    "\", \"metrics\": " + r.metrics_json + "}");
  }

  ~ChaosSidecar() {
    if (runs_.empty()) return;
    std::string json = "{\n  \"bench\": \"" + bench_ + "\",\n  \"meta\": " +
                       bench_meta_json(start_) + ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      json += runs_[i];
      json += (i + 1 < runs_.size()) ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    (void)obs::write_text_file("BENCH_" + bench_ + ".metrics.json", json);
  }

 private:
  std::string bench_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::vector<std::string> runs_;
};

}  // namespace hc::bench

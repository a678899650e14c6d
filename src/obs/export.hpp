// Exporters for the metrics registry and tracer.
//
// Both formats are deterministic: metric values are integers (simulated
// microseconds or counts), families and label sets iterate in std::map order,
// and spans are emitted in recording order. Two same-seed runs therefore
// produce byte-identical output, which the tests rely on.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hc::obs {

/// Escape a string for embedding inside a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Snapshot of every counter, gauge and histogram as a JSON object:
/// {"counters":{family:{labelset:value}},
///  "gauges":{...},
///  "histograms":{family:{labelset:{"count":..,"sum":..,
///                                  "bounds":[..],"buckets":[..]}}}}
[[nodiscard]] std::string metrics_to_json(const MetricsRegistry& registry);

/// Chrome trace-event JSON ("X" complete events, ts/dur in simulated µs,
/// one tid per track with thread_name metadata). Load via chrome://tracing
/// or https://ui.perfetto.dev. Spans still open are emitted with dur 0.
[[nodiscard]] std::string trace_to_chrome_json(const Tracer& tracer);

/// Write `content` to `path`, truncating. Returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace hc::obs

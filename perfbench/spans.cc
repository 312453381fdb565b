#include "spans.h"

#include <algorithm>

#include "workloads.h"

namespace perfbench {

namespace {

/// Per-layer sample cap per thread: bounds memory on long runs while
/// leaving hundreds of thousands of spans for the percentiles.
constexpr std::size_t kMaxSamplesPerLayer = std::size_t{1} << 18;

}  // namespace

struct ThreadBuffer {
  const SpanRecorder* owner = nullptr;
  SpanRecorder::Scope* open = nullptr;  // innermost open span
  std::uint64_t calls[static_cast<int>(Layer::kCount)] = {};
  std::vector<std::uint32_t> self_ns[static_cast<int>(Layer::kCount)];
};

namespace {
thread_local ThreadBuffer* tls_buffer = nullptr;
}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGaaCheck:
      return "gaa.check";
    case Layer::kGaaExec:
      return "gaa.exec";
    case Layer::kGaaPost:
      return "gaa.post";
    case Layer::kMemoProbe:
      return "gaa.memo_probe";
    case Layer::kIdsObserve:
      return "ids.observe";
    case Layer::kIdsReport:
      return "ids.report";
    case Layer::kAuditRecord:
      return "audit.record";
    case Layer::kNotify:
      return "audit.notify";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() = default;
SpanRecorder::~SpanRecorder() = default;

ThreadBuffer* SpanRecorder::BufferForThisThread() {
  if (tls_buffer != nullptr && tls_buffer->owner == this) return tls_buffer;
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->owner = this;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::move(buffer));
  tls_buffer = buffers_.back().get();
  return tls_buffer;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, Layer layer)
    : buffer_(recorder->BufferForThisThread()),
      layer_(layer),
      parent_(buffer_->open),
      start_(std::chrono::steady_clock::now()) {
  buffer_->open = this;
}

SpanRecorder::Scope::~Scope() {
  const std::int64_t total_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  buffer_->open = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += total_ns;
  const int index = static_cast<int>(layer_);
  ++buffer_->calls[index];
  std::vector<std::uint32_t>& samples = buffer_->self_ns[index];
  if (samples.size() < kMaxSamplesPerLayer) {
    const std::int64_t self_ns = std::max<std::int64_t>(0, total_ns - child_ns_);
    samples.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(self_ns, UINT32_MAX)));
  }
}

std::vector<LayerSummary> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LayerSummary> out(static_cast<int>(Layer::kCount));
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    std::vector<double> self_us;
    for (const auto& buffer : buffers_) {
      out[i].calls += buffer->calls[i];
      for (std::uint32_t ns : buffer->self_ns[i]) self_us.push_back(ns / 1000.0);
    }
    out[i].self_p50_us = Percentile(self_us, 0.50);
    out[i].self_p99_us = Percentile(self_us, 0.99);
  }
  return out;
}

SpanController::Verdict SpanController::Check(gaa::http::RequestRec& rec) {
  SpanRecorder::Scope span(recorder_, Layer::kGaaCheck);
  return inner_->Check(rec);
}

bool SpanController::OnExecution(gaa::http::RequestRec& rec,
                                 const gaa::http::OperationObservation& obs) {
  SpanRecorder::Scope span(recorder_, Layer::kGaaExec);
  return inner_->OnExecution(rec, obs);
}

void SpanController::OnComplete(gaa::http::RequestRec& rec,
                                const gaa::http::OperationObservation& obs,
                                bool success) {
  SpanRecorder::Scope span(recorder_, Layer::kGaaPost);
  inner_->OnComplete(rec, obs, success);
}

bool SpanController::DecisionIsMemoized(std::string_view path,
                                        std::string_view method,
                                        gaa::util::Ipv4Address client_ip,
                                        std::string_view tenant) const {
  SpanRecorder::Scope span(recorder_, Layer::kMemoProbe);
  return inner_->DecisionIsMemoized(path, method, client_ip, tenant);
}

void SpanIdsChannel::Report(const gaa::core::IdsReport& report) {
  SpanRecorder::Scope span(recorder_, Layer::kIdsReport);
  inner_->Report(report);
}

void SpanAuditSink::Record(const std::string& category,
                           const std::string& message) {
  SpanRecorder::Scope span(recorder_, Layer::kAuditRecord);
  inner_->Record(category, message);
}

void SpanAuditSink::Record(const std::string& category,
                           const std::string& message,
                           std::uint64_t trace_id) {
  SpanRecorder::Scope span(recorder_, Layer::kAuditRecord);
  inner_->Record(category, message, trace_id);
}

void SpanAuditSink::Record(const gaa::core::AuditEvent& event) {
  SpanRecorder::Scope span(recorder_, Layer::kAuditRecord);
  inner_->Record(event);
}

bool SpanNotifier::Notify(const std::string& recipient,
                          const std::string& subject,
                          const std::string& body) {
  SpanRecorder::Scope span(recorder_, Layer::kNotify);
  return inner_->Notify(recipient, subject, body);
}

}  // namespace perfbench

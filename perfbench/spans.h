// Span-recording decorators for the traced benchmark run.  Each decorator
// wraps one of the program's public seams (the access-control interface,
// the IDS channel, the audit sink, the notification service) and records
// one span per call: its duration and its self time, i.e. the duration
// minus the spans the call itself caused on the same thread (an IDS report
// made from inside an access check is the check's child).  Spans are kept
// in per-thread buffers and reduced when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gaa/services.h"
#include "http/server.h"

namespace perfbench {

enum class Layer {
  kGaaCheck,     // AccessController::Check (paper phase 2)
  kGaaExec,      // AccessController::OnExecution (phase 3)
  kGaaPost,      // AccessController::OnComplete (phase 4)
  kMemoProbe,    // AccessController::DecisionIsMemoized
  kIdsObserve,   // IntrusionDetectionSystem::ObserveRequest
  kIdsReport,    // IdsChannel::Report
  kAuditRecord,  // AuditSink::Record
  kNotify,       // NotificationService::Notify
  kCount,
};
const char* LayerName(Layer layer);

struct ThreadBuffer;

struct LayerSummary {
  std::uint64_t calls = 0;
  double self_p50_us = 0;
  double self_p99_us = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buffer_;
    Layer layer_;
    Scope* parent_;
    std::chrono::steady_clock::time_point start_;
    std::int64_t child_ns_ = 0;
  };

  /// Reduce every thread's spans.  Call after all serving threads stopped.
  std::vector<LayerSummary> Summarize() const;

 private:
  ThreadBuffer* BufferForThisThread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// The access-control seam: times Check, OnExecution, OnComplete and the
/// transport's memo probe, and forwards everything to `inner`.
class SpanController final : public gaa::http::AccessController {
 public:
  SpanController(gaa::http::AccessController* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  Verdict Check(gaa::http::RequestRec& rec) override;
  bool OnExecution(gaa::http::RequestRec& rec,
                   const gaa::http::OperationObservation& obs) override;
  void OnComplete(gaa::http::RequestRec& rec,
                  const gaa::http::OperationObservation& obs,
                  bool success) override;
  bool DecisionIsMemoized(std::string_view path, std::string_view method,
                          gaa::util::Ipv4Address client_ip,
                          std::string_view tenant) const override;
  bool AllowsUnchecked() const override { return inner_->AllowsUnchecked(); }

 private:
  gaa::http::AccessController* inner_;
  SpanRecorder* recorder_;
};

class SpanIdsChannel final : public gaa::core::IdsChannel {
 public:
  SpanIdsChannel(gaa::core::IdsChannel* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}
  void Report(const gaa::core::IdsReport& report) override;
  bool SuspectedSpoofing(const std::string& source_ip) override {
    return inner_->SuspectedSpoofing(source_ip);
  }

 private:
  gaa::core::IdsChannel* inner_;
  SpanRecorder* recorder_;
};

class SpanAuditSink final : public gaa::core::AuditSink {
 public:
  SpanAuditSink(gaa::core::AuditSink* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}
  void Record(const std::string& category, const std::string& message) override;
  void Record(const std::string& category, const std::string& message,
              std::uint64_t trace_id) override;
  void Record(const gaa::core::AuditEvent& event) override;

 private:
  gaa::core::AuditSink* inner_;
  SpanRecorder* recorder_;
};

class SpanNotifier final : public gaa::core::NotificationService {
 public:
  SpanNotifier(gaa::core::NotificationService* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}
  bool Notify(const std::string& recipient, const std::string& subject,
              const std::string& body) override;

 private:
  gaa::core::NotificationService* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#include "workloads.h"

#include <algorithm>

namespace perfbench {

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "static_memo") {
    *out = Workload::kStaticMemo;
  } else if (name == "paper_mixed") {
    *out = Workload::kPaperMixed;
  } else if (name == "tenant_churn") {
    *out = Workload::kTenantChurn;
  } else {
    return false;
  }
  return true;
}

namespace {

std::string SiteDocPath(int index) {
  return "/site/p" + std::to_string(index) + ".html";
}

}  // namespace

gaa::http::DocTree BuildSite() {
  gaa::http::DocTree tree = gaa::http::DocTree::DemoSite();
  for (int i = 0; i < kSiteDocs; ++i) {
    // 256 B to ~4 KiB bodies: small enough for the inline tier's byte
    // budget, varied enough that a wrong document shows as a wrong length.
    const std::size_t bytes = 256 + static_cast<std::size_t>(i) * 397 % 3840;
    const std::string tail = "</body></html>";
    std::string body = "<html><body>page " + std::to_string(i) + " ";
    body.resize(bytes - tail.size(), 'x');
    body += tail;
    gaa::http::Document doc;
    doc.content = std::move(body);
    doc.mtime_us = 1053345600LL * 1000000LL;
    tree.AddDocument(SiteDocPath(i), std::move(doc));
  }
  return tree;
}

const std::vector<std::string>& BenignDocPaths() {
  static const std::vector<std::string> paths = [] {
    std::vector<std::string> out = {"/index.html", "/docs/guide.html",
                                    "/docs/api.html"};
    for (int i = 0; i < kSiteDocs; ++i) out.push_back(SiteDocPath(i));
    return out;
  }();
  return paths;
}

std::string TenantName(int tenant) { return "t" + std::to_string(tenant); }

std::string TenantHost(int tenant) {
  return TenantName(tenant) + ".bench.test";
}

std::uint32_t ClientAddress(std::uint32_t base, std::uint64_t index) {
  // 254 usable hosts per /24: .1 through .254.
  const std::uint64_t net = index / 254;
  const std::uint64_t host = 1 + index % 254;
  return base + static_cast<std::uint32_t>((net << 8) | host);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t k = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

std::string HostFor(Workload workload, int tenant) {
  return workload == Workload::kTenantChurn ? TenantHost(tenant)
                                            : std::string("localhost");
}

}  // namespace perfbench

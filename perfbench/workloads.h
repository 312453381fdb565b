// Workload definitions shared by the benchmark's two processes: the server
// harness (which configures the program for a workload) and the load
// generator (which produces the request bytes and knows the expected
// answers).  Both sides build the same site and tenant table from here, so
// the generator can check every response against the document it asked for.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "http/doc_tree.h"

namespace perfbench {

enum class Workload { kStaticMemo, kPaperMixed, kTenantChurn };

bool ParseWorkload(std::string_view name, Workload* out);

/// Static documents added on top of DocTree::DemoSite().  The count stays
/// under the streaming IDS fan-out threshold (40 distinct paths per client
/// bucket): the HLL matrix shares its 1024 buckets among all clients, so
/// the whole site, not one client, must fit under it.
constexpr int kSiteDocs = 24;
gaa::http::DocTree BuildSite();

/// Paths benign clients GET: the site documents plus the demo pages.
const std::vector<std::string>& BenignDocPaths();

/// tenant_churn's namespaces, routed by Host.
constexpr int kTenants = 64;
std::string TenantName(int tenant);
std::string TenantHost(int tenant);

/// Client address ranges inside 127.0.0.0/8, host byte order.  Benign and
/// attacking clients never share an address, so the BadGuys blacklist can
/// only ever hold attackers.
constexpr std::uint32_t kBenignBase = (127u << 24) | (64u << 16);     // 127.64/10
constexpr std::uint32_t kAttackerBase = (127u << 24) | (200u << 16);  // 127.200/16
/// The index-th usable host address above `base` (skips .0 and .255).
std::uint32_t ClientAddress(std::uint32_t base, std::uint64_t index);

/// Host header a benign request of `workload` carries for `tenant`.
std::string HostFor(Workload workload, int tenant);

/// The q-quantile (0..1) of `values`, nearest rank; 0 when empty.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#include "service/sharded_catalog.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/check.h"

namespace fgp::service {

namespace {

/// FNV-1a 64-bit; stable across platforms so shard assignment (and the
/// fan-out counters derived from it) is deterministic.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- the per-shard dataset index (ReplicaShard::index) ---------------------

constexpr std::uint64_t kStartBits = 0xffffffffull;

/// A publish shifts the copied index with one pass over the table per new
/// entry. A pass costs about 1 ns a slot and a rebuild about 20 ns a run
/// (hash + probe), at 2-3 slots a run; past this many entries in one
/// shard the rebuild is cheaper.
constexpr std::size_t kShiftPassesMax = 8;

/// The slot tag and home position both come from the hash's high half:
/// its low bits are shared by every dataset of a shard whenever the shard
/// count is a power of two.
std::uint64_t index_tag(std::uint64_t hash) { return hash >> 32; }

/// Smallest power-of-two table that holds `runs` at load <= 0.75.
std::size_t index_capacity(std::size_t runs) {
  std::size_t capacity = 8;
  while (capacity / 4 * 3 < runs) capacity *= 2;
  return capacity;
}

void index_insert(std::vector<std::uint64_t>& index, std::uint64_t hash,
                  std::size_t start) {
  const std::size_t mask = index.size() - 1;
  std::size_t pos = static_cast<std::size_t>(index_tag(hash)) & mask;
  while (index[pos] != 0) pos = (pos + 1) & mask;
  index[pos] = (index_tag(hash) << 32) | (start + 1);
}

/// Indexes every dataset run of `shard.replicas` into a fresh table.
void rebuild_index(ReplicaShard& shard) {
  const auto& r = shard.replicas;
  const auto starts_run = [&r](std::size_t i) {
    return i == 0 || r[i].dataset != r[i - 1].dataset;
  };
  shard.runs = 0;
  for (std::size_t i = 0; i < r.size(); ++i) shard.runs += starts_run(i);
  shard.index.assign(index_capacity(shard.runs), 0);
  for (std::size_t i = 0; i < r.size(); ++i)
    if (starts_run(i)) index_insert(shard.index, fnv1a(r[i].dataset), i);
}

bool link_less(const Topology::Link& a, const Topology::Link& b) {
  if (a.repository != b.repository) return a.repository < b.repository;
  return a.compute < b.compute;
}

/// Runs before shards_ is sized in the member-init list, so an absurd
/// shard count throws the documented ConfigError instead of attempting a
/// giant vector allocation (bad_alloc).
std::size_t validated_shard_count(std::size_t shards) {
  if (shards < 1 || shards > 4096)
    throw util::ConfigError("shard count must be in [1, 4096], got " +
                            std::to_string(shards));
  return shards;
}

}  // namespace

const grid::ComputeSite* Topology::find_compute(std::string_view id) const {
  for (const auto& s : compute_sites)
    if (s.id == id) return &s;
  return nullptr;
}

const grid::RepositorySite* Topology::find_repository(
    std::string_view id) const {
  for (const auto& s : repository_sites)
    if (s.id == id) return &s;
  return nullptr;
}

const sim::WanSpec* Topology::find_link(std::string_view repository,
                                        std::string_view compute) const {
  const auto it = std::lower_bound(
      links.begin(), links.end(), std::make_pair(repository, compute),
      [](const Link& l, const std::pair<std::string_view, std::string_view>&
                            key) {
        if (l.repository != key.first) return l.repository < key.first;
        return l.compute < key.second;
      });
  if (it == links.end() || it->repository != repository ||
      it->compute != compute)
    return nullptr;
  return &it->wan;
}

std::span<const grid::Replica> ReplicaShard::replicas_of(
    std::string_view dataset) const {
  if (index.empty()) return {};
  const std::uint64_t hash = fnv1a(dataset);
  const std::uint64_t tag = index_tag(hash);
  const std::size_t mask = index.size() - 1;
  // Load <= 0.75 guarantees an empty slot ends every probe.
  for (std::size_t pos = static_cast<std::size_t>(tag) & mask;
       index[pos] != 0; pos = (pos + 1) & mask) {
    const std::uint64_t slot = index[pos];
    if ((slot >> 32) != tag) continue;
    const std::size_t start = static_cast<std::size_t>(slot & kStartBits) - 1;
    if (replicas[start].dataset != dataset) continue;
    std::size_t end = start + 1;
    while (end < replicas.size() && replicas[end].dataset == dataset) ++end;
    return {replicas.data() + start, end - start};
  }
  return {};
}

std::size_t shard_of(std::string_view dataset, std::size_t shard_count) {
  FGP_ASSERT(shard_count > 0);
  return static_cast<std::size_t>(fnv1a(dataset) % shard_count);
}

ShardedCatalog::ShardedCatalog(std::size_t shards)
    : shards_(validated_shard_count(shards)) {
  topology_.store(std::make_shared<const Topology>());
  for (auto& s : shards_) s.store(std::make_shared<const ReplicaShard>());
}

void ShardedCatalog::register_compute_site(grid::ComputeSite site) {
  FGP_CHECK_MSG(!site.id.empty(), "compute site needs an id");
  FGP_CHECK_MSG(site.available_nodes > 0, "compute site needs nodes");
  const std::lock_guard<std::mutex> lock(write_mu_);
  auto next = std::make_shared<Topology>(*topology_.load());
  FGP_CHECK_MSG(next->find_compute(site.id) == nullptr,
                "duplicate compute site " << site.id);
  next->compute_sites.push_back(std::move(site));
  next->version++;
  topology_.store(std::shared_ptr<const Topology>(std::move(next)));
}

void ShardedCatalog::register_repository_site(grid::RepositorySite site) {
  FGP_CHECK_MSG(!site.id.empty(), "repository site needs an id");
  FGP_CHECK_MSG(site.available_nodes > 0, "repository site needs nodes");
  const std::lock_guard<std::mutex> lock(write_mu_);
  auto next = std::make_shared<Topology>(*topology_.load());
  FGP_CHECK_MSG(next->find_repository(site.id) == nullptr,
                "duplicate repository site " << site.id);
  next->repository_sites.push_back(std::move(site));
  next->version++;
  topology_.store(std::shared_ptr<const Topology>(std::move(next)));
}

void ShardedCatalog::register_link(const grid::SiteId& repository,
                                   const grid::SiteId& compute,
                                   sim::WanSpec wan) {
  const std::lock_guard<std::mutex> lock(write_mu_);
  auto next = std::make_shared<Topology>(*topology_.load());
  FGP_CHECK_MSG(next->find_repository(repository) != nullptr,
                "unknown repository site: " << repository);
  FGP_CHECK_MSG(next->find_compute(compute) != nullptr,
                "unknown compute site: " << compute);
  Topology::Link link{repository, compute, wan};
  const auto it = std::lower_bound(next->links.begin(), next->links.end(),
                                   link, link_less);
  FGP_CHECK_MSG(it == next->links.end() || it->repository != repository ||
                    it->compute != compute,
                "duplicate link " << repository << " -> " << compute);
  next->links.insert(it, std::move(link));
  next->version++;
  topology_.store(std::shared_ptr<const Topology>(std::move(next)));
}

void ShardedCatalog::register_replica(grid::Replica replica) {
  std::vector<grid::Replica> one;
  one.push_back(std::move(replica));
  register_replicas(std::move(one));
}

void ShardedCatalog::register_replicas(std::vector<grid::Replica> replicas) {
  if (replicas.empty()) return;
  const std::lock_guard<std::mutex> lock(write_mu_);
  const auto topo = topology_.load();
  // Validate against the current topology first so a bad entry publishes
  // nothing (all-or-nothing, matching GridCatalog's per-entry checks).
  for (const auto& r : replicas) {
    const auto* repo = topo->find_repository(r.repository);
    FGP_CHECK_MSG(repo != nullptr,
                  "unknown repository site: " << r.repository);
    FGP_CHECK_MSG(r.storage_nodes > 0 &&
                      r.storage_nodes <= repo->available_nodes,
                  "replica of " << r.dataset << " wants " << r.storage_nodes
                                << " nodes, site " << repo->id << " has "
                                << repo->available_nodes);
  }

  // Partition the batch, then copy-on-publish only the touched shards.
  std::vector<std::vector<grid::Replica>> per_shard(shards_.size());
  for (auto& r : replicas)
    per_shard[shard_of(r.dataset, shards_.size())].push_back(std::move(r));
  // The index packs run starts into 32 bits.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    FGP_CHECK_MSG(per_shard[s].empty() ||
                      shards_[s].load()->replicas.size() +
                              per_shard[s].size() <
                          (std::size_t{1} << 32),
                  "shard " << s << " would reach 2^32 replica entries");
  const auto by_dataset = [](const grid::Replica& a, const grid::Replica& b) {
    return a.dataset < b.dataset;
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& batch = per_shard[s];
    if (batch.empty()) continue;
    // Registration order within a dataset must survive (GridCatalog
    // enumeration parity): stable_sort keeps it inside the batch, and the
    // merge below takes equal keys from the published entries first.
    std::stable_sort(batch.begin(), batch.end(), by_dataset);
    const auto current = shards_[s].load();
    const auto& old = current->replicas;
    auto next = std::make_shared<ReplicaShard>();
    if (old.empty()) {
      next->replicas = std::move(batch);
      rebuild_index(*next);
    } else {
      // ins_pos[j]: published entries emitted before batch entry j.
      // new_runs: positions in `next` of datasets the shard lacked.
      auto& out = next->replicas;
      out.reserve(old.size() + batch.size());
      std::vector<std::size_t> ins_pos;
      std::vector<std::size_t> new_runs;
      ins_pos.reserve(batch.size());
      std::size_t o = 0;
      for (auto& b : batch) {
        while (o < old.size() && !(b.dataset < old[o].dataset))
          out.push_back(old[o++]);
        ins_pos.push_back(o);
        if (out.empty() || out.back().dataset != b.dataset)
          new_runs.push_back(out.size());
        out.push_back(std::move(b));
      }
      out.insert(out.end(), old.begin() + static_cast<std::ptrdiff_t>(o),
                 old.end());

      next->runs = current->runs + new_runs.size();
      if (index_capacity(next->runs) > current->index.size() ||
          batch.size() > kShiftPassesMax) {
        rebuild_index(*next);
      } else {
        // A published run start moves right by one for every batch entry
        // merged in before it (entries appended to a run leave its start
        // alone): one branch-free pass over the table per entry. Passes
        // run from the last entry back, so a start a pass moved still
        // compares right against the earlier entries' old positions.
        next->index = current->index;
        for (auto pos = ins_pos.rbegin(); pos != ins_pos.rend(); ++pos)
          for (auto& slot : next->index)
            slot += static_cast<std::uint64_t>(slot != 0) &
                    static_cast<std::uint64_t>((slot & kStartBits) - 1 >=
                                               *pos);
        for (const std::size_t start : new_runs)
          index_insert(next->index, fnv1a(out[start].dataset), start);
      }
    }
    shards_[s].store(std::shared_ptr<const ReplicaShard>(std::move(next)));
  }
}

std::shared_ptr<const Topology> ShardedCatalog::topology() const {
  return topology_.load();
}

std::shared_ptr<const ReplicaShard> ShardedCatalog::shard(
    std::size_t index) const {
  FGP_CHECK_MSG(index < shards_.size(),
                "shard index " << index << " out of range (catalog has "
                               << shards_.size() << ")");
  return shards_[index].load();
}

std::shared_ptr<const ReplicaShard> ShardedCatalog::shard_for(
    std::string_view dataset) const {
  return shards_[shard_of(dataset, shards_.size())].load();
}

std::size_t ShardedCatalog::replica_count() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s.load()->replicas.size();
  return total;
}

std::vector<grid::Candidate> ShardedCatalog::enumerate_candidates(
    const Topology& topo, const ReplicaShard& shard,
    const std::string& dataset) {
  std::vector<grid::Candidate> out;
  for (const auto& replica : shard.replicas_of(dataset)) {
    for (const auto& site : topo.compute_sites) {
      const auto* wan = topo.find_link(replica.repository, site.id);
      if (wan == nullptr) continue;  // unreachable pair
      // 64-bit sweep counter: `c *= 2` on an int is UB once
      // available_nodes exceeds INT_MAX/2.
      for (long long c = 1; c <= site.available_nodes; c *= 2) {
        if (c < replica.storage_nodes) continue;  // FREERIDE-G: M >= N
        out.push_back({replica, site.id, static_cast<int>(c), *wan});
      }
    }
  }
  return out;
}

}  // namespace fgp::service

#include "core/selector.h"

#include <algorithm>

#include "util/check.h"

namespace fgp::core {

bool ranked_before(const RankedCandidate& a, const RankedCandidate& b) {
  const double ta = a.predicted.total();
  const double tb = b.predicted.total();
  if (ta != tb) return ta < tb;
  const auto& ca = a.candidate;
  const auto& cb = b.candidate;
  if (ca.replica.repository != cb.replica.repository)
    return ca.replica.repository < cb.replica.repository;
  if (ca.compute_site != cb.compute_site)
    return ca.compute_site < cb.compute_site;
  if (ca.replica.storage_nodes != cb.replica.storage_nodes)
    return ca.replica.storage_nodes < cb.replica.storage_nodes;
  return ca.compute_nodes < cb.compute_nodes;
}

ResourceSelector::ResourceSelector(const grid::GridCatalog* catalog,
                                   Profile profile, PredictorOptions options,
                                   std::map<std::string, ScalingFactors> scalers)
    : catalog_(catalog),
      profile_(std::move(profile)),
      options_(options),
      scalers_(std::move(scalers)) {
  FGP_CHECK_MSG(catalog_ != nullptr, "selector needs a grid catalog");
}

std::vector<RankedCandidate> ResourceSelector::rank(
    const std::string& dataset, double dataset_bytes) const {
  std::vector<RankedCandidate> out;
  for (const auto& candidate : catalog_->enumerate_candidates(dataset)) {
    const auto& site = catalog_->compute_site(candidate.compute_site);

    ProfileConfig target;
    target.data_nodes = candidate.replica.storage_nodes;
    target.compute_nodes = candidate.compute_nodes;
    target.dataset_bytes = dataset_bytes;
    target.bandwidth_Bps = candidate.wan.per_link_Bps;
    target.data_cluster =
        catalog_->repository_site(candidate.replica.repository).cluster.name;
    target.compute_cluster = site.cluster.name;

    RankedCandidate rc;
    rc.candidate = candidate;
    if (site.cluster.name == profile_.config.compute_cluster) {
      // Same hardware as the profile: measure IPC there and predict.
      PredictorOptions opts = options_;
      opts.ipc = measure_ipc(site.cluster);
      rc.predicted = Predictor(profile_, opts).predict(target);
    } else {
      const auto it = scalers_.find(site.cluster.name);
      if (it == scalers_.end()) continue;  // no way to predict this cluster
      rc.predicted = HeteroPredictor(Predictor(profile_, options_), it->second)
                         .predict(target);
      rc.used_hetero_scaling = true;
    }
    out.push_back(std::move(rc));
  }
  std::sort(out.begin(), out.end(), ranked_before);
  return out;
}

RankedCandidate ResourceSelector::best(const std::string& dataset,
                                       double dataset_bytes) const {
  auto ranked = rank(dataset, dataset_bytes);
  FGP_CHECK_MSG(!ranked.empty(),
                "no predictable candidate for dataset '" << dataset << "'");
  return ranked.front();
}

}  // namespace fgp::core

// selector.h — resource and replica selection, the model's raison d'être.
//
// "Our goal is to choose a replica and computing configuration pair where
// the data processing can be performed with the minimum cost. … our
// problem reduces to that of estimating the execution time for a
// particular configuration." The selector enumerates every candidate the
// grid catalog offers, predicts each one's execution time from a single
// application profile (applying heterogeneous scaling factors when the
// candidate's compute cluster differs from the profile's), and ranks
// candidates by predicted total time.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/hetero.h"
#include "grid/catalog.h"

namespace fgp::core {

struct RankedCandidate {
  grid::Candidate candidate;
  PredictedTime predicted;
  bool used_hetero_scaling = false;
};

/// The ranking's total order: predicted total time, then the candidate's
/// identity (repository, compute site, storage nodes, compute nodes).
/// std::sort is not stable, so without the identity tie-break two
/// equal-cost candidates could legally come back in either order.
bool ranked_before(const RankedCandidate& a, const RankedCandidate& b);

class ResourceSelector {
 public:
  /// `scalers` maps a compute-cluster name to the A->that-cluster scaling
  /// factors; candidates on clusters with no entry and a different machine
  /// than the profile's are skipped (cannot be predicted).
  ResourceSelector(const grid::GridCatalog* catalog, Profile profile,
                   PredictorOptions options,
                   std::map<std::string, ScalingFactors> scalers = {});

  /// All predictable candidates for the dataset in ranked_before order.
  std::vector<RankedCandidate> rank(const std::string& dataset,
                                    double dataset_bytes) const;

  /// The cheapest candidate; throws util::Error when none is predictable.
  RankedCandidate best(const std::string& dataset,
                       double dataset_bytes) const;

 private:
  const grid::GridCatalog* catalog_;
  Profile profile_;
  PredictorOptions options_;
  std::map<std::string, ScalingFactors> scalers_;
};

}  // namespace fgp::core

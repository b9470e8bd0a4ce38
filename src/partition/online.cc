#include "partition/online.h"

#include <algorithm>

namespace orpheus::part {

int64_t OnlineMaintainer::EffectiveGamma() const {
  if (options_.gamma_factor > 0) {
    return static_cast<int64_t>(options_.gamma_factor *
                                static_cast<double>(all_records_.size()));
  }
  return options_.gamma;
}

Result<OnlineStep> OnlineMaintainer::OnVersionCommitted(
    const VersionArrival& arrival) {
  ORPHEUS_RETURN_NOT_OK(graph_.AddVersion(arrival.vid, arrival.parents,
                                          arrival.parent_weights,
                                          static_cast<int64_t>(arrival.rids.size())));
  all_records_.insert(arrival.rids.begin(), arrival.rids.end());

  OnlineStep step;
  const int64_t gamma = EffectiveGamma();

  // --- Placement ------------------------------------------------------
  if (arrival.parents.empty() || store_->num_versions() == 0) {
    ORPHEUS_ASSIGN_OR_RETURN(size_t unused,
                             store_->AddVersionAsNewPartition(arrival.vid,
                                                              arrival.rids));
    (void)unused;
    step.opened_partition = true;
  } else {
    // Max-overlap parent.
    size_t best = 0;
    for (size_t p = 1; p < arrival.parents.size(); ++p) {
      if (arrival.parent_weights[p] > arrival.parent_weights[best]) best = p;
    }
    int64_t w = arrival.parent_weights[best];
    double threshold =
        options_.delta_star * static_cast<double>(all_records_.size());
    if (static_cast<double>(w) <= threshold && store_->StorageRecords() < gamma) {
      ORPHEUS_ASSIGN_OR_RETURN(size_t unused,
                               store_->AddVersionAsNewPartition(arrival.vid,
                                                                arrival.rids));
      (void)unused;
      step.opened_partition = true;
    } else {
      ORPHEUS_ASSIGN_OR_RETURN(size_t k,
                               store_->PartitionOf(arrival.parents[best]));
      ORPHEUS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                               store_->SourceRows(arrival.rids));
      ORPHEUS_RETURN_NOT_OK(
          store_->AddVersionToPartition(arrival.vid, k, arrival.rids, rows));
    }
  }

  // --- Divergence check -------------------------------------------------
  step.storage = store_->StorageRecords();
  step.cavg = store_->AvgCheckoutCost();
  ORPHEUS_ASSIGN_OR_RETURN(LyreSplitResult best,
                           LyreSplit::RunForBudget(graph_, std::max(gamma,
                                                                    total_records())));
  step.cavg_best = best.estimated_checkout;

  if (step.cavg_best > 0 && step.cavg > options_.mu * step.cavg_best) {
    ORPHEUS_ASSIGN_OR_RETURN(
        step.migration,
        store_->Migrate(best.partitioning, options_.intelligent_migration));
    step.migrated = true;
    options_.delta_star = best.delta;  // remember the last split parameter
    step.storage = store_->StorageRecords();
    step.cavg = store_->AvgCheckoutCost();
  }
  return step;
}

}  // namespace orpheus::part

#include "mindex/pivot_set.h"

#include "common/rng.h"

namespace simcloud {
namespace mindex {

Result<PivotSet> PivotSet::SelectRandom(
    const std::vector<metric::VectorObject>& objects, size_t count,
    uint64_t seed) {
  if (count == 0) {
    return Status::InvalidArgument("pivot count must be > 0");
  }
  if (count > objects.size()) {
    return Status::InvalidArgument(
        "pivot count " + std::to_string(count) +
        " exceeds collection size " + std::to_string(objects.size()));
  }
  Rng rng(seed);
  std::vector<size_t> picked =
      rng.SampleWithoutReplacement(objects.size(), count);
  std::vector<metric::VectorObject> pivots;
  pivots.reserve(count);
  for (size_t idx : picked) pivots.push_back(objects[idx]);
  return PivotSet(std::move(pivots));
}

std::vector<float> PivotSet::ComputeDistances(
    const metric::VectorObject& object,
    const metric::DistanceFunction& distance) const {
  std::vector<double> exact(pivots_.size());
  distance.DistanceMany(object, pivots_, exact);
  return std::vector<float>(exact.begin(), exact.end());
}

void PivotSet::Serialize(BinaryWriter* writer) const {
  writer->WriteVarint(pivots_.size());
  for (const auto& pivot : pivots_) pivot.Serialize(writer);
}

Result<PivotSet> PivotSet::Deserialize(BinaryReader* reader) {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, reader->ReadVarint());
  std::vector<metric::VectorObject> pivots;
  pivots.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SIMCLOUD_ASSIGN_OR_RETURN(metric::VectorObject pivot,
                              metric::VectorObject::Deserialize(reader));
    pivots.push_back(std::move(pivot));
  }
  return PivotSet(std::move(pivots));
}

}  // namespace mindex
}  // namespace simcloud

//===- core/Labeling.cpp -----------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "core/Labeling.h"

#include <cassert>

using namespace pbt;
using namespace pbt::core;

unsigned core::bestLandmark(const linalg::Matrix &Time,
                            const linalg::Matrix &Acc, size_t Row,
                            const std::optional<runtime::AccuracySpec> &Spec) {
  std::vector<unsigned> All(Time.cols());
  for (size_t K = 0; K != Time.cols(); ++K)
    All[K] = static_cast<unsigned>(K);
  return bestLandmarkWithin(Time, Acc, Row, All, Spec);
}

unsigned
core::bestLandmarkWithin(const linalg::Matrix &Time, const linalg::Matrix &Acc,
                         size_t Row, const std::vector<unsigned> &Allowed,
                         const std::optional<runtime::AccuracySpec> &Spec) {
  assert(!Allowed.empty() && "need at least one landmark");
  assert(Row < Time.rows() && "row out of range");

  if (!Spec) {
    // Time-only: argmin time.
    unsigned Best = Allowed[0];
    for (unsigned K : Allowed)
      if (Time.at(Row, K) < Time.at(Row, Best))
        Best = K;
    return Best;
  }

  // Variable accuracy: fastest among landmarks meeting the threshold.
  bool AnyMeets = false;
  unsigned BestMeeting = Allowed[0];
  unsigned MostAccurate = Allowed[0];
  for (unsigned K : Allowed) {
    bool Meets = Acc.at(Row, K) >= Spec->AccuracyThreshold;
    if (Meets && (!AnyMeets || Time.at(Row, K) < Time.at(Row, BestMeeting))) {
      BestMeeting = K;
      AnyMeets = true;
    }
    if (Acc.at(Row, K) > Acc.at(Row, MostAccurate) ||
        (Acc.at(Row, K) == Acc.at(Row, MostAccurate) &&
         Time.at(Row, K) < Time.at(Row, MostAccurate)))
      MostAccurate = K;
  }
  return AnyMeets ? BestMeeting : MostAccurate;
}

std::vector<unsigned>
core::labelAllRows(const linalg::Matrix &Time, const linalg::Matrix &Acc,
                   const std::optional<runtime::AccuracySpec> &Spec) {
  std::vector<unsigned> Labels;
  Labels.reserve(Time.rows());
  for (size_t Row = 0; Row != Time.rows(); ++Row)
    Labels.push_back(bestLandmark(Time, Acc, Row, Spec));
  return Labels;
}

double
core::satisfactionOf(const linalg::Matrix &Acc, const std::vector<size_t> &Rows,
                     unsigned Landmark,
                     const std::optional<runtime::AccuracySpec> &Spec) {
  if (!Spec || Rows.empty())
    return 1.0;
  size_t Meets = 0;
  for (size_t Row : Rows)
    if (Acc.at(Row, Landmark) >= Spec->AccuracyThreshold)
      ++Meets;
  return static_cast<double>(Meets) / static_cast<double>(Rows.size());
}

unsigned
core::selectStaticOracle(const linalg::Matrix &Time, const linalg::Matrix &Acc,
                         const std::vector<size_t> &Rows,
                         const std::optional<runtime::AccuracySpec> &Spec) {
  assert(Time.cols() >= 1 && "need at least one landmark");
  size_t K = Time.cols();

  auto TotalTime = [&](unsigned Landmark) {
    double Sum = 0.0;
    for (size_t Row : Rows)
      Sum += Time.at(Row, Landmark);
    return Sum;
  };

  // Partition landmarks by whether they meet the satisfaction threshold.
  unsigned BestQualified = 0;
  double BestQualifiedTime = 0.0;
  bool AnyQualified = false;
  unsigned BestFallback = 0;
  double BestFallbackSat = -1.0;
  double BestFallbackTime = 0.0;

  for (unsigned L = 0; L != K; ++L) {
    double Sat = satisfactionOf(Acc, Rows, L, Spec);
    double T = TotalTime(L);
    bool Qualified = !Spec || Sat >= Spec->SatisfactionThreshold;
    if (Qualified && (!AnyQualified || T < BestQualifiedTime)) {
      BestQualified = L;
      BestQualifiedTime = T;
      AnyQualified = true;
    }
    if (Sat > BestFallbackSat ||
        (Sat == BestFallbackSat && T < BestFallbackTime)) {
      BestFallback = L;
      BestFallbackSat = Sat;
      BestFallbackTime = T;
    }
  }
  return AnyQualified ? BestQualified : BestFallback;
}

#include "core/fsim_config.h"

#include <algorithm>
#include <cmath>

namespace fsim {

uint32_t CorollaryOneBound(double w, double epsilon) {
  if (w <= 0.0) return 1;  // scores are fixed by the label term alone
  double bound = std::ceil(std::log(epsilon) / std::log(w));
  return static_cast<uint32_t>(std::max(1.0, bound));
}

uint32_t FSimIterationBound(const FSimConfig& config) {
  if (config.max_iterations > 0) return config.max_iterations;
  return CorollaryOneBound(config.w_out + config.w_in, config.epsilon);
}

OperatorConfig OperatorsForVariant(SimVariant variant) {
  switch (variant) {
    case SimVariant::kSimple:
      return {MappingKind::kMaxPerRow, OmegaKind::kSizeS1};
    case SimVariant::kDegreePreserving:
      return {MappingKind::kInjectiveRow, OmegaKind::kSizeS1};
    case SimVariant::kBi:
      return {MappingKind::kMaxBothSides, OmegaKind::kSumSizes};
    case SimVariant::kBijective:
      return {MappingKind::kInjectiveSym, OmegaKind::kGeoMean};
  }
  return {};
}

FSimConfig SimRankFSimConfig(double c) {
  FSimConfig config;
  config.w_out = 0.0;
  config.w_in = c;
  config.label_term = LabelTermKind::kZero;
  config.init = InitKind::kIndicatorDiagonal;
  config.operator_override = OperatorConfig{MappingKind::kProduct,
                                            OmegaKind::kProduct};
  config.pin_diagonal = true;
  config.theta = 0.0;
  return config;
}

FSimConfig RoleSimFSimConfig(double beta) {
  FSimConfig config;
  config.w_out = 1.0 - beta;
  config.w_in = 0.0;
  config.label_term = LabelTermKind::kOne;
  config.init = InitKind::kDegreeRatio;
  config.operator_override = OperatorConfig{MappingKind::kInjectiveSym,
                                            OmegaKind::kMaxSize};
  config.theta = 0.0;
  return config;
}

}  // namespace fsim

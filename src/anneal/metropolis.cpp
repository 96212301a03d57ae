#include "anneal/metropolis.h"

namespace qs::anneal {

ExpBrackets::ExpBrackets() {
  constexpr double kShrink = 1.0 - 0x1.0p-50;
  constexpr double kWiden = 1.0 + 0x1.0p-50;
  double upper = 1.0;  // std::exp(-0.0)
  for (std::size_t k = 0; k < kSteps; ++k) {
    const double lower =
        std::exp(-static_cast<double>(k + 1) / kStepsPerUnit);
    table_[k] = {lower * kShrink, upper * kWiden};
    upper = lower;
  }
}

}  // namespace qs::anneal

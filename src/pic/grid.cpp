#include "pic/grid.hpp"

#include <numbers>
#include <stdexcept>

namespace dlpic::pic {

Grid1D::Grid1D(size_t ncells, double length) : ncells_(ncells), length_(length) {
  if (ncells < 2) throw std::invalid_argument("Grid1D: ncells must be >= 2");
  if (!(length > 0.0)) throw std::invalid_argument("Grid1D: length must be positive");
  dx_ = length / static_cast<double>(ncells);
}

double Grid1D::mode_wavenumber(size_t m) const {
  return 2.0 * std::numbers::pi * static_cast<double>(m) / length_;
}

}  // namespace dlpic::pic

// Sparse symmetric pair coefficients: the one coupling layout behind
// QuboModel's Q and IsingModel's J, in O(n + nnz) memory.
//
// Each pair {i, j} is stored once, in row min(i, j), and every row is
// sorted by column. An add in lexicographic (i, j) order — what the
// problem lowerings and the QUBO <-> Ising maps emit — is an O(1) append;
// an out-of-order add binary-searches one row, then accumulates or
// inserts. An entry starts from +0.0 and sums its own adds in call order,
// whatever was added to other pairs in between. Entries that cancel to
// exactly 0 stay stored, but every walk skips them, visiting ascending i,
// then ascending j.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saim::ising {

class SparseCouplings {
 public:
  struct Entry {
    std::uint32_t col = 0;  ///< j > the row's i
    double value = 0.0;
  };

  SparseCouplings() = default;
  explicit SparseCouplings(std::size_t n) : rows_(n) {}

  /// Accumulates v into {i, j}. Requires i != j, both < n: the models
  /// check indices and fold the diagonal themselves.
  void add(std::size_t i, std::size_t j, double v);

  /// Coefficient of {i, j} (i != j); 0 when never added.
  [[nodiscard]] double get(std::size_t i, std::size_t j) const noexcept;

  /// Row i's stored entries, ascending col, exact zeros included.
  [[nodiscard]] std::span<const Entry> row(std::size_t i) const noexcept {
    return rows_[i];
  }

  /// Calls f(i, j, v) for every nonzero pair, ascending i then j.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      for (const Entry& e : rows_[i]) {
        if (e.value != 0.0) f(i, std::size_t{e.col}, e.value);
      }
    }
  }

  [[nodiscard]] std::size_t nnz() const noexcept;  ///< nonzero pairs
  [[nodiscard]] double max_abs() const noexcept;   ///< 0 when empty

 private:
  std::vector<std::vector<Entry>> rows_;
};

}  // namespace saim::ising

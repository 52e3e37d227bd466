// remspan-lint: treat-as src/geom/fixture.cpp
// R6 fixture: src/geom feeds every bit-exact harness, so iterating an
// unordered_set there without an allow(R6) justification is a violation.
#include <unordered_set>

int fixture_sum() {
  const std::unordered_set<int> cells{1, 3, 5};
  int total = 0;
  for (auto it = cells.begin(); it != cells.end(); ++it) total += *it;
  return total;
}

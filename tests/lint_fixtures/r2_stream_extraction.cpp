// remspan-lint: treat-as src/dynamic/fixture.cpp
// R2 fixture: numeric stream extraction in library code outside util/.
#include <istream>

unsigned fixture_read(std::istream& in) {
  unsigned id = 0;
  in >> id;
  return id;
}

// semlint-fixture-path: src/core/bad_throw.cc
// Fixture: throw, try and catch all fire.
int Checked(int x) {
  try {
    if (x < 0) throw 1;
  } catch (int) {
  }
  return x;
}

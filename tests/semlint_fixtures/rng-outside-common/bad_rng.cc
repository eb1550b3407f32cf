// semlint-fixture-path: src/window/bad_rng.cc
// Fixture: C rand()/srand() and the std engines break replayability.
int Jitter() { return rand() % 7; }
void Reseed(unsigned seed) { srand(seed); }
std::mt19937_64 engine{std::random_device{}()};

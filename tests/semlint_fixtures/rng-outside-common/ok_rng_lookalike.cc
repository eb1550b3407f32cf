// semlint-fixture-path: src/window/ok_rng_lookalike.cc
// Fixture: lookalike names and "rand()" inside a string do not fire.
int operand(int x) { return x + 1; }
const char* kHelp = "never call rand() here";

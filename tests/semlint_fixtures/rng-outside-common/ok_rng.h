// semlint-fixture-path: src/common/rng.h
// Fixture: common/rng.h is the one home of the std engine.
#ifndef DSWM_COMMON_RNG_H_
#define DSWM_COMMON_RNG_H_
std::mt19937_64 engine_;
#endif  // DSWM_COMMON_RNG_H_

// semlint-fixture-path: bench/ok_guard.h
// Fixture: roots other than src/ keep their directory in the guard.
#ifndef DSWM_BENCH_OK_GUARD_H_
#define DSWM_BENCH_OK_GUARD_H_
#endif  // DSWM_BENCH_OK_GUARD_H_

// semlint-fixture-path: src/window/bad_guard_unclosed.h
// Fixture: the closing #endif must name the guard.
#ifndef DSWM_WINDOW_BAD_GUARD_UNCLOSED_H_
#define DSWM_WINDOW_BAD_GUARD_UNCLOSED_H_
#endif

// semlint-fixture-path: src/window/bad_guard_name.h
// Fixture: the guard must be DSWM_WINDOW_BAD_GUARD_NAME_H_.
#ifndef DSWM_WINDOW_BAD_GUARD_NAME_H
#define DSWM_WINDOW_BAD_GUARD_NAME_H
#endif  // DSWM_WINDOW_BAD_GUARD_NAME_H

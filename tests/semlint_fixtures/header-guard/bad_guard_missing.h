// semlint-fixture-path: src/window/bad_guard_missing.h
// Fixture: #pragma once is not the repo's include guard.
#pragma once

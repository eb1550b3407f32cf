// semlint-fixture-path: src/core/ok_no_exceptions.cc
// Fixture: names that contain the keywords, and the keywords in comments
// (try, throw, catch) or strings, do not fire.
bool catchup(int try_lock, int entry) { return try_lock > entry; }
const char* kNote = "do not throw";

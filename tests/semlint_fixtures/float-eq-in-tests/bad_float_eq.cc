// semlint-fixture-path: tests/bad_float_eq_test.cc
// Fixture: EXPECT_EQ/ASSERT_EQ against a float literal, in any spelling.
TEST(FloatEq, Literals) {
  EXPECT_EQ(Half(), 0.5);
  ASSERT_EQ(-1e-3, Half());
  EXPECT_EQ(Half(), .25f);
}

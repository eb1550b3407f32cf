// semlint-fixture-path: tests/ok_float_eq_test.cc
// Fixture: tolerances, exactness claims, integer literals and float
// literals inside a larger argument do not fire.
TEST(FloatEq, Sanctioned) {
  EXPECT_NEAR(Half(), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(Half(), 0.5);
  EXPECT_EQ(Count(0.5), 2);
}

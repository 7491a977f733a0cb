// Unit tests for shapes, dense arrays, strided views and line iteration.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ndarray/ndarray.hpp"
#include "ndarray/shape.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{4, 3, 2};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.size(), 24u);
  EXPECT_EQ(s[0], 4u);
  EXPECT_EQ(s.extent(2), 2u);
  EXPECT_EQ(s.to_string(), "[4x3x2]");
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, RowMajorStrides) {
  const Shape s{4, 3, 2};
  const auto st = s.row_major_strides();
  EXPECT_EQ(st[0], 6u);
  EXPECT_EQ(st[1], 2u);
  EXPECT_EQ(st[2], 1u);
}

TEST(Shape, InvalidRankRejected) {
  EXPECT_THROW(Shape({}), InvalidArgumentError);
  EXPECT_THROW(Shape({1, 2, 3, 4, 5}), InvalidArgumentError);
  EXPECT_THROW((void)Shape::of_rank(0), InvalidArgumentError);
}

TEST(Shape, AxisOutOfRangeRejected) {
  const Shape s{2, 2};
  EXPECT_THROW((void)s.extent(2), InvalidArgumentError);
}

TEST(NdArray, IndexingIsRowMajor) {
  NdArray<double> a(Shape{2, 3});
  std::iota(a.values().begin(), a.values().end(), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 5.0);
}

TEST(NdArray, ConstructFromVectorValidatesSize) {
  std::vector<double> v(5, 1.0);
  EXPECT_THROW(NdArray<double>(Shape{2, 3}, v), InvalidArgumentError);
  EXPECT_NO_THROW(NdArray<double>(Shape{5}, v));
}

TEST(NdSpan, SubblockSelectsWindow) {
  NdArray<double> a(Shape{4, 4});
  std::iota(a.values().begin(), a.values().end(), 0.0);
  const std::size_t offs[] = {1, 2};
  const std::size_t exts[] = {2, 2};
  auto sub = a.view().subblock(offs, exts);
  EXPECT_DOUBLE_EQ(sub(0, 0), a(1, 2));
  EXPECT_DOUBLE_EQ(sub(1, 1), a(2, 3));
  sub(0, 0) = -1.0;
  EXPECT_DOUBLE_EQ(a(1, 2), -1.0);
}

TEST(NdSpan, SubblockOutOfRangeRejected) {
  NdArray<double> a(Shape{4, 4});
  const std::size_t offs[] = {3, 0};
  const std::size_t exts[] = {2, 2};
  EXPECT_THROW((void)a.view().subblock(offs, exts), InvalidArgumentError);
}

TEST(NdSpan, VisitRowMajorOnSubblockUsesParentStrides) {
  NdArray<double> a(Shape{4, 6});
  std::iota(a.values().begin(), a.values().end(), 0.0);
  const std::size_t offs[] = {1, 1};
  const std::size_t exts[] = {2, 3};
  auto sub = a.view().subblock(offs, exts);
  EXPECT_EQ(sub.stride(0), 6u);
  EXPECT_EQ(sub.stride(1), 1u);
  std::vector<double> seen;
  sub.visit_row_major([&](double& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<double>{7, 8, 9, 13, 14, 15}));
}

TEST(NdSpan, VisitRowMajorOrder) {
  NdArray<double> a(Shape{2, 2, 2});
  std::iota(a.values().begin(), a.values().end(), 0.0);
  std::vector<double> seen;
  a.view().visit_row_major([&](double& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(NdSpan, CopyToFromRoundTripOnStridedView) {
  NdArray<double> a(Shape{4, 4});
  std::iota(a.values().begin(), a.values().end(), 0.0);
  const std::size_t offs[] = {0, 0};
  const std::size_t exts[] = {2, 2};
  auto sub = a.view().subblock(offs, exts);

  std::vector<double> flat(4);
  sub.copy_to(flat);
  EXPECT_EQ(flat, (std::vector<double>{0, 1, 4, 5}));

  const std::vector<double> repl = {9, 8, 7, 6};
  sub.copy_from(repl);
  EXPECT_DOUBLE_EQ(a(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 6.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 10.0);  // outside the window: untouched
}

TEST(NdSpan, AtValidatesIndices) {
  NdArray<double> a(Shape{2, 3});
  const std::size_t good[] = {1, 2};
  const std::size_t bad[] = {1, 3};
  EXPECT_NO_THROW((void)a.view().at(good));
  EXPECT_THROW((void)a.view().at(bad), InvalidArgumentError);
}

TEST(NdArray, EqualityComparesShapeAndData) {
  NdArray<double> a(Shape{2, 2}, 1.0);
  NdArray<double> b(Shape{2, 2}, 1.0);
  NdArray<double> c(Shape{4}, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  b(1, 1) = 2.0;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace wck

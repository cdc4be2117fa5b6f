#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "geo/geodesy.h"
#include "hexgrid/hexgrid.h"
#include "util/rng.h"

namespace marlin {
namespace {

TEST(HexGridTest, ResolutionLadderHalvesEdgeLength) {
  for (int r = HexGrid::kMinResolution; r < HexGrid::kMaxResolution; ++r) {
    EXPECT_DOUBLE_EQ(HexGrid::CircumradiusMeters(r),
                     2.0 * HexGrid::CircumradiusMeters(r + 1));
  }
  EXPECT_DOUBLE_EQ(HexGrid::CircumradiusMeters(0),
                   HexGrid::kRes0CircumradiusMeters);
  EXPECT_EQ(HexGrid::CircumradiusMeters(-1), 0.0);
  EXPECT_EQ(HexGrid::CircumradiusMeters(16), 0.0);
}

TEST(HexGridTest, CellAreaScalesByFour) {
  EXPECT_NEAR(HexGrid::CellAreaSqMeters(5) / HexGrid::CellAreaSqMeters(6), 4.0,
              1e-9);
}

TEST(HexGridTest, EncodeDecodeRoundTrip) {
  for (int res : {0, 3, 7, 11, 15}) {
    for (int64_t q : {-1000, -1, 0, 1, 12345}) {
      for (int64_t r : {-777, 0, 9999}) {
        const CellId id = HexGrid::Encode(res, q, r);
        ASSERT_NE(id, kInvalidCellId);
        int res2;
        int64_t q2, r2;
        HexGrid::Decode(id, &res2, &q2, &r2);
        EXPECT_EQ(res2, res);
        EXPECT_EQ(q2, q);
        EXPECT_EQ(r2, r);
      }
    }
  }
}

TEST(HexGridTest, InvalidInputsRejected) {
  EXPECT_EQ(HexGrid::LatLngToCell(LatLng{0, 0}, -1), kInvalidCellId);
  EXPECT_EQ(HexGrid::LatLngToCell(LatLng{0, 0}, 16), kInvalidCellId);
  const double nan = std::nan("");
  EXPECT_EQ(HexGrid::LatLngToCell(LatLng{nan, 0}, 7), kInvalidCellId);
  EXPECT_EQ(HexGrid::Resolution(kInvalidCellId), -1);
  EXPECT_FALSE(HexGrid::IsValid(kInvalidCellId));
}

TEST(HexGridTest, CellCenterMapsBackToSameCell) {
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) {
    const LatLng p{rng.Uniform(-80.0, 80.0), rng.Uniform(-179.0, 179.0)};
    const int res = static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{12}));
    const CellId cell = HexGrid::LatLngToCell(p, res);
    ASSERT_TRUE(HexGrid::IsValid(cell));
    const LatLng center = HexGrid::CellToLatLng(cell);
    EXPECT_EQ(HexGrid::LatLngToCell(center, res), cell)
        << "res=" << res << " lat=" << p.lat_deg << " lon=" << p.lon_deg;
  }
}

TEST(HexGridTest, PointIsWithinCircumradiusOfCellCenter) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    // Stay in moderate latitudes where the projection distortion is small.
    const LatLng p{rng.Uniform(-55.0, 55.0), rng.Uniform(-179.0, 179.0)};
    const int res = 7;
    const CellId cell = HexGrid::LatLngToCell(p, res);
    const LatLng center = HexGrid::CellToLatLng(cell);
    // Distance from a contained point to the center is at most the
    // circumradius (allow projection slack at higher latitudes).
    const double slack = 1.0 / std::cos(p.lat_deg * kDegToRad);
    EXPECT_LE(ApproxDistanceMeters(p, center),
              HexGrid::CircumradiusMeters(res) * slack * 1.05);
  }
}

TEST(HexGridTest, KRingSizes) {
  const CellId center = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 7);
  for (int k = 0; k <= 4; ++k) {
    const auto ring = HexGrid::KRing(center, k);
    EXPECT_EQ(ring.size(), static_cast<size_t>(1 + 3 * k * (k + 1)));
    // All cells distinct.
    std::unordered_set<CellId> unique(ring.begin(), ring.end());
    EXPECT_EQ(unique.size(), ring.size());
    EXPECT_EQ(ring.front(), center);
  }
}

TEST(HexGridTest, KRingCellsAreWithinGridDistanceK) {
  const CellId center = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 8);
  const int k = 3;
  for (CellId cell : HexGrid::KRing(center, k)) {
    const int d = HexGrid::GridDistance(center, cell);
    EXPECT_GE(d, 0);
    EXPECT_LE(d, k);
  }
}

TEST(HexGridTest, NeighborsAreSixDistinctAdjacentCells) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 9);
  const auto neighbors = HexGrid::Neighbors(cell);
  ASSERT_EQ(neighbors.size(), 6u);
  std::unordered_set<CellId> unique(neighbors.begin(), neighbors.end());
  EXPECT_EQ(unique.size(), 6u);
  for (CellId n : neighbors) {
    EXPECT_TRUE(HexGrid::AreNeighbors(cell, n));
    EXPECT_EQ(HexGrid::GridDistance(cell, n), 1);
  }
  EXPECT_FALSE(HexGrid::AreNeighbors(cell, cell));
}

TEST(HexGridTest, GridDistanceDisagreesAcrossResolutions) {
  const CellId a = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 7);
  const CellId b = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 8);
  EXPECT_EQ(HexGrid::GridDistance(a, b), -1);
}

TEST(HexGridTest, ParentContainsChildCenter) {
  Rng rng(47);
  for (int i = 0; i < 500; ++i) {
    const LatLng p{rng.Uniform(-70.0, 70.0), rng.Uniform(-179.0, 179.0)};
    const int res = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{12}));
    const CellId cell = HexGrid::LatLngToCell(p, res);
    const CellId parent = HexGrid::Parent(cell);
    ASSERT_NE(parent, kInvalidCellId);
    EXPECT_EQ(HexGrid::Resolution(parent), res - 1);
    // The parent must be the coarser cell containing this cell's center.
    const LatLng center = HexGrid::CellToLatLng(cell);
    EXPECT_EQ(HexGrid::LatLngToCell(center, res - 1), parent);
  }
}

TEST(HexGridTest, ParentAtSameResolutionIsIdentity) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 7);
  EXPECT_EQ(HexGrid::Parent(cell, 7), cell);
}

TEST(HexGridTest, ParentOfResolutionZeroIsInvalid) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 0);
  EXPECT_EQ(HexGrid::Parent(cell), kInvalidCellId);
}

TEST(HexGridTest, GrandparentViaTwoStepsMatchesDirect) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{51.5, -0.12}, 9);
  const CellId direct = HexGrid::Parent(cell, 7);
  const CellId stepped = HexGrid::Parent(HexGrid::Parent(cell));
  EXPECT_EQ(direct, stepped);
}

TEST(HexGridTest, ChildrenRoundTripToParent) {
  Rng rng(53);
  size_t total_children = 0;
  int cells = 0;
  for (int i = 0; i < 200; ++i) {
    const LatLng p{rng.Uniform(-60.0, 60.0), rng.Uniform(-170.0, 170.0)};
    const int res = static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{10}));
    const CellId cell = HexGrid::LatLngToCell(p, res);
    const auto children = HexGrid::Children(cell);
    // Aperture-4: 4 children on average; per-cell counts vary because the
    // fine lattice is phase-shifted, but a cell is never childless.
    EXPECT_GE(children.size(), 1u);
    EXPECT_LE(children.size(), 7u);
    total_children += children.size();
    ++cells;
    for (CellId child : children) {
      EXPECT_EQ(HexGrid::Resolution(child), res + 1);
      EXPECT_EQ(HexGrid::Parent(child), cell);
    }
  }
  const double mean = static_cast<double>(total_children) / cells;
  EXPECT_NEAR(mean, 4.0, 0.5);
}

TEST(HexGridTest, ChildrenOfMaxResolutionEmpty) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 15);
  EXPECT_TRUE(HexGrid::Children(cell).empty());
}

TEST(HexGridTest, NearbyPointsShareCellFarPointsDoNot) {
  const LatLng a{37.95, 23.60};
  // ~100 m away: same res-7 cell (circumradius ~8.6 km) almost surely.
  const LatLng near = DestinationPoint(a, 45.0, 100.0);
  // ~60 km away: different res-7 cell certainly.
  const LatLng far = DestinationPoint(a, 45.0, 60000.0);
  EXPECT_EQ(HexGrid::LatLngToCell(a, 7), HexGrid::LatLngToCell(near, 7));
  EXPECT_NE(HexGrid::LatLngToCell(a, 7), HexGrid::LatLngToCell(far, 7));
}

TEST(HexGridTest, DistinctCellsTileWithoutOverlap) {
  // Sample a dense grid of points; each maps to exactly one cell, and cells
  // partition the sampled area (no point maps to two cells by definition —
  // check instead that adjacent samples map to the same or adjacent cells,
  // i.e. the tiling has no holes at res 6).
  const int res = 6;
  const double step = 0.01;
  CellId prev = kInvalidCellId;
  for (double lon = 20.0; lon < 21.0; lon += step) {
    const CellId cell = HexGrid::LatLngToCell(LatLng{37.0, lon}, res);
    if (prev != kInvalidCellId && cell != prev) {
      EXPECT_EQ(HexGrid::GridDistance(prev, cell), 1)
          << "tiling hole near lon=" << lon;
    }
    prev = cell;
  }
}

// -------------------------------------------------------------- Polyfill

TEST(PolyfillTest, CoversEveryPointOfTheBox) {
  const BoundingBox box{37.0, 23.0, 38.5, 25.0};
  const int resolution = 6;
  const auto cells = HexGrid::Polyfill(box, resolution);
  ASSERT_FALSE(cells.empty());
  const std::unordered_set<CellId> cell_set(cells.begin(), cells.end());
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const LatLng p{rng.Uniform(box.min_lat, box.max_lat),
                   rng.Uniform(box.min_lon, box.max_lon)};
    EXPECT_TRUE(cell_set.count(HexGrid::LatLngToCell(p, resolution)) > 0)
        << p.lat_deg << "," << p.lon_deg;
  }
}

TEST(PolyfillTest, CellCountMatchesAreaEstimate) {
  const BoundingBox box{36.0, 20.0, 40.0, 26.0};
  const int resolution = 6;
  const auto cells = HexGrid::Polyfill(box, resolution);
  // Rough area check: box area / cell area within a factor of ~2 of the
  // returned count (boundary cells inflate it).
  const double height_m =
      (box.max_lat - box.min_lat) * kDegToRad * kEarthRadiusMeters;
  const double width_m = (box.max_lon - box.min_lon) * kDegToRad *
                         kEarthRadiusMeters *
                         std::cos(38.0 * kDegToRad);
  const double expected =
      height_m * width_m / HexGrid::CellAreaSqMeters(resolution);
  EXPECT_GT(static_cast<double>(cells.size()), expected * 0.7);
  EXPECT_LT(static_cast<double>(cells.size()), expected * 2.5);
}

TEST(PolyfillTest, SortedUniqueAndResolutionTagged) {
  const BoundingBox box{10.0, 10.0, 10.5, 10.5};
  const auto cells = HexGrid::Polyfill(box, 8);
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LT(cells[i - 1], cells[i]);
  }
  for (CellId cell : cells) {
    EXPECT_EQ(HexGrid::Resolution(cell), 8);
  }
  EXPECT_TRUE(HexGrid::Polyfill(box, -1).empty());
  EXPECT_TRUE(HexGrid::Polyfill(box, 99).empty());
}

TEST(PolyfillTest, TinyBoxYieldsAtLeastOneCell) {
  const BoundingBox box{37.95, 23.64, 37.951, 23.641};
  const auto cells = HexGrid::Polyfill(box, 5);
  EXPECT_GE(cells.size(), 1u);
}

}  // namespace
}  // namespace marlin

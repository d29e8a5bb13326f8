#include "src/sim/trajectory.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "src/geometry/paper_topologies.hpp"
#include "src/sensing/routed_travel_model.hpp"
#include "src/sensing/travel_model.hpp"
#include "tests/helpers.hpp"

namespace mocos::sim {
namespace {

sensing::TravelModel model1(double speed = 1.0) {
  return sensing::TravelModel(geometry::paper_topology(1), speed, 1.0, 0.25);
}

TEST(Trajectory, ValidatesInput) {
  EXPECT_THROW(Trajectory({}), std::invalid_argument);
  EXPECT_THROW(Trajectory({{1.0, {0, 0}}, {0.5, {1, 1}}}),
               std::invalid_argument);
}

TEST(Trajectory, InterpolatesLinearly) {
  Trajectory t({{0.0, {0.0, 0.0}}, {2.0, {4.0, 0.0}}, {3.0, {4.0, 0.0}}});
  EXPECT_EQ(t.position_at(1.0), (geometry::Vec2{2.0, 0.0}));
  EXPECT_EQ(t.position_at(2.5), (geometry::Vec2{4.0, 0.0}));  // pause holds
  EXPECT_EQ(t.position_at(-1.0), (geometry::Vec2{0.0, 0.0}));  // clamps
  EXPECT_EQ(t.position_at(9.0), (geometry::Vec2{4.0, 0.0}));
  EXPECT_DOUBLE_EQ(t.length(), 4.0);
}

TEST(RecordTrajectory, SpeedNeverExceedsModelSpeed) {
  const auto model = model1(1.5);
  util::Rng rng(3);
  const auto p = test::random_positive_chain(4, rng);
  const auto traj = record_trajectory(model, p, 200, rng);
  const auto& pts = traj.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double dt = pts[i].t - pts[i - 1].t;
    const double dist = geometry::distance(pts[i - 1].pos, pts[i].pos);
    if (dt > 1e-12)
      EXPECT_LE(dist / dt, 1.5 + 1e-9) << "segment " << i;
    else
      EXPECT_NEAR(dist, 0.0, 1e-12);
  }
}

TEST(RecordTrajectory, EndTimeMatchesTransitionDurations) {
  // Deterministic alternating pair: total time = N * (travel + pause).
  auto topo = geometry::make_grid("pair", 1, 2, geometry::uniform_targets(2));
  sensing::TravelModel model(topo, 1.0, 1.0, 0.25);
  util::Rng rng(4);
  const auto p =
      markov::TransitionMatrix(linalg::Matrix{{0.0, 1.0}, {1.0, 0.0}});
  const auto traj = record_trajectory(model, p, 10, rng);
  EXPECT_NEAR(traj.end_time(), 10.0 * 2.0, 1e-12);
  EXPECT_NEAR(traj.length(), 10.0, 1e-12);  // 10 unit hops
}

TEST(RecordTrajectory, PositionsVisitOnlyPoIsAndRoutes) {
  // Sampled positions at pause ends must coincide with PoI locations.
  const auto model = model1();
  util::Rng rng(5);
  const auto traj =
      record_trajectory(model, markov::TransitionMatrix::uniform(4), 100, rng);
  std::size_t on_poi = 0;
  for (const auto& pt : traj.points()) {
    for (std::size_t i = 0; i < 4; ++i)
      if (geometry::distance(pt.pos, model.topology().position(i)) < 1e-9)
        ++on_poi;
  }
  // Departure + arrival + pause-end points all sit on PoIs for straight
  // routes; every recorded point qualifies.
  EXPECT_EQ(on_poi, traj.points().size());
}

TEST(RecordTrajectory, RoutedModelDetoursAroundObstacle) {
  geometry::Topology topo("pair", {{0.0, 0.0}, {4.0, 0.0}}, {0.5, 0.5});
  const auto wall = geometry::Polygon::rectangle({1.8, -1.0}, {2.2, 1.0});
  sensing::RoutedTravelModel model(topo, {wall}, 1.0, 1.0, 0.25, 0.05);
  util::Rng rng(6);
  const auto p =
      markov::TransitionMatrix(linalg::Matrix{{0.0, 1.0}, {1.0, 0.0}});
  const auto traj = record_trajectory(model, p, 4, rng);
  // Sample densely; no position may be inside the wall.
  for (double t = traj.start_time(); t <= traj.end_time(); t += 0.05)
    EXPECT_FALSE(wall.contains(traj.position_at(t))) << "t=" << t;
  // And the trajectory length shows the detour.
  EXPECT_GT(traj.length(), 4.0 * 4.0);
}

TEST(RecordTrajectory, CsvRoundTrip) {
  const auto model = model1();
  util::Rng rng(7);
  const auto traj =
      record_trajectory(model, markov::TransitionMatrix::uniform(4), 5, rng);
  const test::TempPath file("mocos_traj.csv");
  traj.write_csv(file.path());
  std::ifstream in(file.path());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "t,x,y");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, traj.points().size());
}

TEST(RecordTrajectory, ValidatesArguments) {
  const auto model = model1();
  util::Rng rng(8);
  EXPECT_THROW(
      record_trajectory(model, markov::TransitionMatrix::uniform(3), 5, rng),
      std::invalid_argument);
  EXPECT_THROW(
      record_trajectory(model, markov::TransitionMatrix::uniform(4), 0, rng),
      std::invalid_argument);
  EXPECT_THROW(record_trajectory(model, markov::TransitionMatrix::uniform(4),
                                 5, rng, 9),
               std::invalid_argument);
}

}  // namespace
}  // namespace mocos::sim

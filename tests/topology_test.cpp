#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace repro::topo {
namespace {

TEST(SystemConfig, TitanDimensions) {
  const SystemConfig titan = SystemConfig::titan();
  EXPECT_EQ(titan.cabinets(), 200);
  EXPECT_EQ(titan.nodes_per_cabinet(), 96);
  EXPECT_EQ(titan.total_nodes(), 19'200);  // 18,688 populated on Titan
}

TEST(SystemConfig, ScaledKeepsFloorGrid) {
  const SystemConfig scaled = SystemConfig::titan_scaled();
  EXPECT_EQ(scaled.grid_x, 25);
  EXPECT_EQ(scaled.grid_y, 8);
  EXPECT_EQ(scaled.total_nodes(), 1'600);
}

class TopologyBijectionTest : public ::testing::TestWithParam<SystemConfig> {};

TEST_P(TopologyBijectionTest, IdAddressRoundTrip) {
  const Topology topo(GetParam());
  for (NodeId id = 0; id < topo.total_nodes(); ++id) {
    const NodeAddress addr = topo.address_of(id);
    EXPECT_EQ(topo.id_of(addr), id);
  }
}

TEST_P(TopologyBijectionTest, AddressesAreUnique) {
  const Topology topo(GetParam());
  std::set<std::tuple<int, int, int, int, int>> seen;
  for (NodeId id = 0; id < topo.total_nodes(); ++id) {
    const NodeAddress a = topo.address_of(id);
    EXPECT_TRUE(
        seen.insert({a.cab_x, a.cab_y, a.cage, a.slot, a.node}).second);
  }
}

TEST_P(TopologyBijectionTest, CoordinatesInRange) {
  const SystemConfig cfg = GetParam();
  const Topology topo(cfg);
  for (NodeId id = 0; id < topo.total_nodes(); ++id) {
    const NodeAddress a = topo.address_of(id);
    EXPECT_GE(a.cab_x, 0);
    EXPECT_LT(a.cab_x, cfg.grid_x);
    EXPECT_GE(a.cab_y, 0);
    EXPECT_LT(a.cab_y, cfg.grid_y);
    EXPECT_LT(a.cage, cfg.cages_per_cabinet);
    EXPECT_LT(a.slot, cfg.slots_per_cage);
    EXPECT_LT(a.node, cfg.nodes_per_slot);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TopologyBijectionTest,
                         ::testing::Values(SystemConfig::tiny(),
                                           SystemConfig::titan_scaled(),
                                           SystemConfig{.grid_x = 3,
                                                        .grid_y = 5,
                                                        .cages_per_cabinet = 2,
                                                        .slots_per_cage = 3,
                                                        .nodes_per_slot = 2}));

TEST(Topology, SlotNeighborsShareSlot) {
  const Topology topo(SystemConfig::titan_scaled());
  const NodeId id = 42;
  const auto neighbors = topo.slot_neighbors(id);
  EXPECT_EQ(neighbors.size(), 3u);  // 4 nodes per slot
  const NodeAddress a = topo.address_of(id);
  for (const NodeId n : neighbors) {
    EXPECT_NE(n, id);
    const NodeAddress b = topo.address_of(n);
    EXPECT_EQ(a.cab_x, b.cab_x);
    EXPECT_EQ(a.cab_y, b.cab_y);
    EXPECT_EQ(a.cage, b.cage);
    EXPECT_EQ(a.slot, b.slot);
  }
}

TEST(Topology, CageNeighborsShareCage) {
  const SystemConfig cfg = SystemConfig::titan();
  const Topology topo(cfg);
  const NodeId id = 1234;
  const auto neighbors = topo.cage_neighbors(id);
  EXPECT_EQ(neighbors.size(),
            static_cast<std::size_t>(cfg.slots_per_cage * cfg.nodes_per_slot) -
                1);
  const NodeAddress a = topo.address_of(id);
  for (const NodeId n : neighbors) {
    const NodeAddress b = topo.address_of(n);
    EXPECT_EQ(a.cage, b.cage);
    EXPECT_EQ(a.cab_x, b.cab_x);
    EXPECT_EQ(a.cab_y, b.cab_y);
  }
}

TEST(Topology, CabinetNodesAndXy) {
  const Topology topo(SystemConfig::tiny());
  const auto nodes = topo.cabinet_nodes(3);
  EXPECT_EQ(nodes.size(),
            static_cast<std::size_t>(topo.config().nodes_per_cabinet()));
  for (const NodeId n : nodes) EXPECT_EQ(topo.cabinet_of(n), 3);
  const auto [x, y] = topo.cabinet_xy(3);
  EXPECT_EQ(x, 3);  // tiny grid is 4 wide
  EXPECT_EQ(y, 0);
  const auto [x2, y2] = topo.cabinet_xy(5);
  EXPECT_EQ(x2, 1);
  EXPECT_EQ(y2, 1);
}

TEST(Topology, SlotBaseIsAligned) {
  const Topology topo(SystemConfig::titan_scaled());
  for (NodeId id = 0; id < 64; ++id) {
    const NodeId base = topo.slot_base(id);
    EXPECT_EQ(base % topo.config().nodes_per_slot, 0);
    EXPECT_LE(base, id);
    EXPECT_GT(base + topo.config().nodes_per_slot, id);
  }
}

TEST(Topology, OutOfRangeThrows) {
  const Topology topo(SystemConfig::tiny());
  EXPECT_THROW((void)topo.address_of(-1), CheckError);
  EXPECT_THROW((void)topo.address_of(topo.total_nodes()), CheckError);
  EXPECT_THROW((void)topo.cabinet_of(topo.total_nodes()), CheckError);
  EXPECT_THROW((void)topo.cabinet_xy(topo.config().cabinets()), CheckError);
  EXPECT_THROW((void)topo.id_of({.cab_x = 99}), CheckError);
}

TEST(Topology, InvalidConfigThrows) {
  SystemConfig bad;
  bad.grid_x = 0;
  EXPECT_THROW(Topology{bad}, CheckError);
}

}  // namespace
}  // namespace repro::topo

// Tests for the DOT exporter that regenerates the paper's figures.
#include <gtest/gtest.h>

#include "protocols/migratory.hpp"
#include "protocols/snoop.hpp"
#include "refine/refined.hpp"
#include "viz/dot.hpp"

namespace ccref::viz {
namespace {

TEST(Dot, RendezvousHomeMentionsStatesAndMessages) {
  auto p = protocols::make_migratory();
  std::string dot = rendezvous_dot(p, p.home);
  EXPECT_NE(dot.find("digraph migratory_h"), std::string::npos);
  for (const char* name : {"\"F\"", "\"E\"", "\"I1\"", "\"I2\"", "\"I3\""})
    EXPECT_NE(dot.find(name), std::string::npos) << name;
  EXPECT_NE(dot.find("r(i)?req"), std::string::npos);
  EXPECT_NE(dot.find("r(o)!inv"), std::string::npos);
  EXPECT_NE(dot.find("r(j)!gr"), std::string::npos);
}

TEST(Dot, RendezvousRemoteShowsTauEdges) {
  auto p = protocols::make_migratory();
  std::string dot = rendezvous_dot(p, p.remote);
  EXPECT_NE(dot.find("evict"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("h!LR"), std::string::npos);
}

TEST(Dot, RefinedUsesAsyncNotationAndTransients) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  std::string dot = refined_dot(rp, p.remote);
  // Figure 5's conventions: ?? / !! operators, dotted transient self-loop.
  EXPECT_NE(dot.find("h!!req"), std::string::npos);
  EXPECT_NE(dot.find("??gr"), std::string::npos);
  EXPECT_NE(dot.find("??nack"), std::string::npos);
  EXPECT_NE(dot.find("??*"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);
}

TEST(Dot, RefinedHomeShowsFusedReplies) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  std::string dot = refined_dot(rp, p.home);
  // gr is a fire-and-forget reply: no transient; inv routes via one.
  EXPECT_NE(dot.find("r(j)!!gr"), std::string::npos);
  EXPECT_NE(dot.find("r(o)!!inv"), std::string::npos);
  EXPECT_NE(dot.find("??ID"), std::string::npos);
}

TEST(Dot, ElideAckDrawnDotted) {
  auto p = protocols::make_migratory();
  refine::Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  std::string dot = refined_dot(rp, p.remote);
  // The hand design's LR edge is dotted and has no transient wait.
  EXPECT_NE(dot.find("h!!LR"), std::string::npos);
  auto pos = dot.find("h!!LR");
  auto line_end = dot.find('\n', pos);
  EXPECT_NE(dot.substr(pos, line_end - pos).find("dotted"),
            std::string::npos);
}

TEST(Dot, BusGuardsDrawTheBroadcastPeer) {
  // Bus guards are drawn as the DSL writes them: `bcast!BusRd` and
  // `bcast?BusRdX` (`bcast!!`/`bcast??` in the refined notation), never
  // with an unknown `?` peer.
  auto p = protocols::make_mesi();
  auto rp = refine::refine(p);
  const std::string rv = rendezvous_dot(p, p.remote);
  const std::string refined = refined_dot(rp, p.remote);
  EXPECT_NE(rv.find("bcast!BusRd"), std::string::npos);
  EXPECT_NE(rv.find("bcast?BusRdX"), std::string::npos);
  EXPECT_NE(refined.find("bcast!!BusRd"), std::string::npos);
  EXPECT_NE(refined.find("bcast??BusRdX"), std::string::npos);
  // A `?` peer would open a label with `?!` or `??` (rendezvous) and with
  // `?!!` or `???` (refined; `??ack` and the like are transient edges).
  for (const char* bad : {"label=\"?!", "label=\"??"})
    EXPECT_EQ(rv.find(bad), std::string::npos) << bad;
  for (const char* bad : {"label=\"?!!", "label=\"???"})
    EXPECT_EQ(refined.find(bad), std::string::npos) << bad;
}

TEST(Dot, OutputIsBalanced) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  for (std::string dot :
       {rendezvous_dot(p, p.home), rendezvous_dot(p, p.remote),
        refined_dot(rp, p.home), refined_dot(rp, p.remote)}) {
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
              std::count(dot.begin(), dot.end(), '}'));
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '['),
              std::count(dot.begin(), dot.end(), ']'));
  }
}

}  // namespace
}  // namespace ccref::viz

// Tests for the forward-progress (livelock) analysis — §2.5 / §3.2.
//
// The flagship cases reproduce the paper's buffer-reservation arguments:
// with the progress buffer and ack buffer enabled, the refined protocols
// have no doomed states; disabling either reservation creates the livelock
// the paper warns about (requests nacked forever while a completing
// writeback can never be buffered).
#include <gtest/gtest.h>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/progress.hpp"

namespace ccref {
namespace {

using refine::Options;
using runtime::AsyncSystem;

TEST(Progress, RendezvousMigratoryNeverDoomed) {
  auto p = protocols::make_migratory();
  auto r = verify::check_progress(sem::RendezvousSystem(p, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
  EXPECT_GT(r.completing_edges, 0u);
}

TEST(Progress, RefinedMigratoryNeverDoomed) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, RefinedInvalidateNeverDoomed) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, DisablingReservationsCreatesLivelock) {
  // §3.2's motivating failure: without the buffer reservations the home's
  // buffer fills with requests that cannot complete in its current state,
  // and the one message that could (the owner's relinquish) is nacked
  // forever. Four remotes are needed to fill a k=2 buffer with junk while a
  // revocation is outstanding (owner + requester + two spammers).
  auto p = protocols::make_migratory();
  Options opts;
  opts.progress_buffer = false;
  opts.ack_buffer = false;
  auto rp = refine::refine(p, opts);
  auto r = verify::check_progress(AsyncSystem(rp, 4));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_GT(r.doomed, 0u);
}

TEST(Progress, ReservationsPreventThatLivelock) {
  // Same configuration with the reservations on: no doomed states.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 4));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, HandDesignStillProgresses) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  auto r = verify::check_progress(AsyncSystem(rp, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, MemoryExhaustionReportsUnfinished) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 3),
                                  {.memory_limit = 64 << 10});
  EXPECT_EQ(r.status, verify::Status::Unfinished);
}

}  // namespace
}  // namespace ccref

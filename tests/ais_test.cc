#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "ais/codec.h"
#include "ais/preprocess.h"
#include "ais/types.h"
#include "util/rng.h"

namespace marlin {
namespace {

AisPosition MakeReport(Mmsi mmsi, TimeMicros t, double lat, double lon,
                       double sog = 12.0, double cog = 90.0) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = sog;
  p.cog_deg = cog;
  p.heading_deg = static_cast<int>(cog);
  return p;
}

// ---------------------------------------------------------------- Types

TEST(AisTypesTest, VesselTypeFromItuCode) {
  EXPECT_EQ(VesselTypeFromItuCode(70), VesselType::kCargo);
  EXPECT_EQ(VesselTypeFromItuCode(79), VesselType::kCargo);
  EXPECT_EQ(VesselTypeFromItuCode(80), VesselType::kTanker);
  EXPECT_EQ(VesselTypeFromItuCode(60), VesselType::kPassenger);
  EXPECT_EQ(VesselTypeFromItuCode(30), VesselType::kFishing);
  EXPECT_EQ(VesselTypeFromItuCode(36), VesselType::kPleasureCraft);
  EXPECT_EQ(VesselTypeFromItuCode(37), VesselType::kPleasureCraft);
  EXPECT_EQ(VesselTypeFromItuCode(52), VesselType::kTug);
  EXPECT_EQ(VesselTypeFromItuCode(40), VesselType::kHighSpeedCraft);
  EXPECT_EQ(VesselTypeFromItuCode(90), VesselType::kOther);
  EXPECT_EQ(VesselTypeFromItuCode(0), VesselType::kUnknown);
}

TEST(AisTypesTest, VesselTypeNamesStable) {
  EXPECT_EQ(VesselTypeName(VesselType::kCargo), "Cargo");
  EXPECT_EQ(VesselTypeName(VesselType::kTanker), "Tanker");
  EXPECT_EQ(VesselTypeName(VesselType::kUnknown), "Unknown");
}

// ---------------------------------------------------------------- Codec

TEST(AisCodecTest, ChecksumMatchesKnownSentence) {
  // Standard NMEA checksum example: XOR of all chars between ! and *.
  EXPECT_EQ(AisCodec::Checksum("AIVDM,1,1,,A,?,0"),
            AisCodec::Checksum("AIVDM,1,1,,A,?,0"));
}

TEST(AisCodecTest, PayloadBitsRoundTrip) {
  BitWriter w;
  w.WriteUint(0x3FF, 10);
  w.WriteInt(-12345, 20);
  w.WriteUint(7, 3);
  int fill = 0;
  const std::string payload = AisCodec::BitsToPayload(w.bits(), &fill);
  const auto bits = AisCodec::PayloadToBits(payload, fill);
  ASSERT_EQ(bits.size(), w.bits().size());
  BitReader r(bits);
  EXPECT_EQ(r.ReadUint(10), 0x3FFu);
  EXPECT_EQ(r.ReadInt(20), -12345);
  EXPECT_EQ(r.ReadUint(3), 7u);
}

TEST(AisCodecTest, PositionRoundTrip) {
  const TimeMicros t = TimeMicros{1635811200} * kMicrosPerSecond + 37 * kMicrosPerSecond;
  AisPosition original = MakeReport(237846000, t, 37.94213, 23.64611, 14.3, 135.5);
  original.nav_status = NavStatus::kUnderWayUsingEngine;
  const std::string sentence = AisCodec::EncodePosition(original);
  EXPECT_EQ(sentence.front(), '!');
  StatusOr<AisPosition> decoded = AisCodec::DecodePosition(sentence, t);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mmsi, original.mmsi);
  EXPECT_NEAR(decoded->position.lat_deg, original.position.lat_deg, 1e-5);
  EXPECT_NEAR(decoded->position.lon_deg, original.position.lon_deg, 1e-5);
  EXPECT_NEAR(decoded->sog_knots, original.sog_knots, 0.05);
  EXPECT_NEAR(decoded->cog_deg, original.cog_deg, 0.05);
  EXPECT_EQ(decoded->heading_deg, original.heading_deg);
  EXPECT_EQ(decoded->timestamp, original.timestamp);
  EXPECT_EQ(decoded->nav_status, original.nav_status);
}

TEST(AisCodecTest, PositionRoundTripRandomised) {
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const TimeMicros t = TimeMicros{1600000000} * kMicrosPerSecond +
                         rng.UniformInt(int64_t{0}, int64_t{86400}) * kMicrosPerSecond;
    AisPosition p = MakeReport(
        static_cast<Mmsi>(rng.UniformInt(int64_t{200000000}, int64_t{775999999})),
        t, rng.Uniform(-85.0, 85.0), rng.Uniform(-179.9, 179.9),
        rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 359.9));
    const std::string sentence = AisCodec::EncodePosition(p);
    StatusOr<AisPosition> decoded = AisCodec::DecodePosition(sentence, t);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->mmsi, p.mmsi);
    EXPECT_NEAR(decoded->position.lat_deg, p.position.lat_deg, 2e-6 + 1e-6);
    EXPECT_NEAR(decoded->position.lon_deg, p.position.lon_deg, 2e-6 + 1e-6);
    EXPECT_NEAR(decoded->sog_knots, p.sog_knots, 0.051);
    EXPECT_NEAR(decoded->cog_deg, p.cog_deg, 0.051);
  }
}

TEST(AisCodecTest, SogNotAvailableEncoding) {
  AisPosition p = MakeReport(205000000, kMicrosPerSecond, 40.0, -70.0);
  p.sog_knots = 102.3;
  const std::string sentence = AisCodec::EncodePosition(p);
  StatusOr<AisPosition> decoded =
      AisCodec::DecodePosition(sentence, kMicrosPerSecond);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->sog_knots, 102.3);
}

TEST(AisCodecTest, RejectsCorruptedChecksum) {
  AisPosition p = MakeReport(205000000, kMicrosPerSecond, 40.0, -70.0);
  std::string sentence = AisCodec::EncodePosition(p);
  // Flip one payload character.
  sentence[20] = sentence[20] == 'A' ? 'B' : 'A';
  StatusOr<AisPosition> decoded =
      AisCodec::DecodePosition(sentence, kMicrosPerSecond);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(AisCodecTest, RejectsGarbage) {
  EXPECT_FALSE(AisCodec::DecodePosition("hello world", 0).ok());
  EXPECT_FALSE(AisCodec::DecodePosition("", 0).ok());
  EXPECT_FALSE(AisCodec::DecodePosition("!AIVDM,1,1,,A", 0).ok());
}

TEST(AisCodecTest, StaticRoundTrip) {
  AisStatic original;
  original.mmsi = 239000123;
  original.name = "MARLIN TEST";
  original.type = VesselType::kTanker;
  original.length_m = 240.0;
  original.beam_m = 38.0;
  original.draught_m = 12.4;
  original.destination = "PIRAEUS";
  const auto sentences = AisCodec::EncodeStatic(original);
  ASSERT_EQ(sentences.size(), 2u);
  StatusOr<AisStatic> decoded = AisCodec::DecodeStatic(sentences);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mmsi, original.mmsi);
  EXPECT_EQ(decoded->name, original.name);
  EXPECT_EQ(decoded->type, original.type);
  EXPECT_NEAR(decoded->length_m, original.length_m, 2.0);
  EXPECT_NEAR(decoded->beam_m, original.beam_m, 2.0);
  EXPECT_NEAR(decoded->draught_m, original.draught_m, 0.05);
  EXPECT_EQ(decoded->destination, original.destination);
}

TEST(AisCodecTest, StaticRequiresTwoFragments) {
  EXPECT_FALSE(AisCodec::DecodeStatic({}).ok());
  EXPECT_FALSE(AisCodec::DecodeStatic({"!AIVDM,1,1,,A,0,0*00"}).ok());
}

TEST(ClassBCodecTest, RoundTrip) {
  const TimeMicros t =
      TimeMicros{1700000000} * kMicrosPerSecond + 14 * kMicrosPerSecond;
  AisPosition original = MakeReport(339000123, t, 36.5, 25.4, 8.7, 301.2);
  const std::string sentence = AisCodec::EncodePositionClassB(original);
  StatusOr<AisPosition> decoded =
      AisCodec::DecodePosition(sentence, original.timestamp);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mmsi, original.mmsi);
  EXPECT_NEAR(decoded->position.lat_deg, original.position.lat_deg, 1e-5);
  EXPECT_NEAR(decoded->position.lon_deg, original.position.lon_deg, 1e-5);
  EXPECT_NEAR(decoded->sog_knots, original.sog_knots, 0.06);
  EXPECT_NEAR(decoded->cog_deg, original.cog_deg, 0.06);
  EXPECT_EQ(decoded->nav_status, NavStatus::kUndefined);
}

TEST(FragmentInfoTest, ParsesSingleAndMulti) {
  AisPosition p = MakeReport(237000001, 0, 38.0, 24.0);
  auto single = AisCodec::ParseFragmentInfo(AisCodec::EncodePosition(p));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->fragment_count, 1);
  EXPECT_EQ(single->sequence_id, -1);

  AisStatic s;
  s.mmsi = 237000001;
  s.name = "TEST";
  const auto pair = AisCodec::EncodeStatic(s);
  auto first = AisCodec::ParseFragmentInfo(pair[0]);
  auto second = AisCodec::ParseFragmentInfo(pair[1]);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fragment_count, 2);
  EXPECT_EQ(first->fragment_number, 1);
  EXPECT_EQ(second->fragment_number, 2);
  EXPECT_EQ(first->sequence_id, second->sequence_id);
  EXPECT_FALSE(AisCodec::ParseFragmentInfo("garbage").ok());
}

TEST(AivdmAssemblerTest, SingleFragmentPassesThrough) {
  AivdmAssembler assembler;
  const std::string sentence =
      AisCodec::EncodePosition(MakeReport(237000001, 0, 38.0, 24.0));
  auto result = assembler.Feed(sentence);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], sentence);
  EXPECT_EQ(assembler.PendingGroups(), 0u);
}

TEST(AivdmAssemblerTest, ReassemblesInterleavedGroups) {
  AisStatic a;
  a.mmsi = 237000001;
  a.name = "ALPHA";
  AisStatic b;
  b.mmsi = 237000002;
  b.name = "BRAVO";
  auto group_a = AisCodec::EncodeStatic(a);
  auto group_b = AisCodec::EncodeStatic(b);
  // Give group B a different sequence id so the groups are distinct.
  for (std::string& sentence : group_b) {
    const size_t pos = sentence.find(",1,A,");
    // EncodeStatic always uses seq id 1; rewrite to 2 and fix checksum.
    if (pos == std::string::npos) continue;
    std::string body = sentence.substr(1, sentence.rfind('*') - 1);
    body[body.find(",1,A,") + 1] = '2';
    char buf[8];
    std::snprintf(buf, sizeof(buf), "*%02X", AisCodec::Checksum(body));
    sentence = "!" + body + buf;
  }
  AivdmAssembler assembler;
  // Interleave: A1, B1, B2 (completes B), A2 (completes A).
  auto r1 = assembler.Feed(group_a[0]);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());
  auto r2 = assembler.Feed(group_b[0]);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
  EXPECT_EQ(assembler.PendingGroups(), 2u);
  auto r3 = assembler.Feed(group_b[1]);
  ASSERT_TRUE(r3.ok());
  ASSERT_EQ(r3->size(), 2u);
  auto decoded_b = AisCodec::DecodeStatic(*r3);
  ASSERT_TRUE(decoded_b.ok());
  EXPECT_EQ(decoded_b->name, "BRAVO");
  auto r4 = assembler.Feed(group_a[1]);
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r4->size(), 2u);
  auto decoded_a = AisCodec::DecodeStatic(*r4);
  ASSERT_TRUE(decoded_a.ok());
  EXPECT_EQ(decoded_a->name, "ALPHA");
  EXPECT_EQ(assembler.PendingGroups(), 0u);
}

TEST(AivdmAssemblerTest, EvictsStaleGroups) {
  AivdmAssembler assembler(2);
  AisStatic s;
  s.name = "X";
  // Feed only first fragments of many groups with distinct mmsi/seq —
  // EncodeStatic always emits seq 1, so rewrite the channel letter to vary
  // the key instead.
  for (char channel : {'A', 'B', 'C', 'D'}) {
    s.mmsi = 237000000 + channel;
    auto pair = AisCodec::EncodeStatic(s);
    std::string body = pair[0].substr(1, pair[0].rfind('*') - 1);
    body[body.find(",1,A,") + 3] = channel;
    char buf[8];
    std::snprintf(buf, sizeof(buf), "*%02X", AisCodec::Checksum(body));
    ASSERT_TRUE(assembler.Feed("!" + body + buf).ok());
  }
  EXPECT_LE(assembler.PendingGroups(), 2u);
}

// ---------------------------------------------------------- Downsampler

TEST(DownsamplerTest, EnforcesMinimumInterval) {
  Downsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(0));
  EXPECT_FALSE(ds.Accept(10 * kMicrosPerSecond));
  EXPECT_FALSE(ds.Accept(29 * kMicrosPerSecond));
  EXPECT_TRUE(ds.Accept(30 * kMicrosPerSecond));
  EXPECT_TRUE(ds.Accept(75 * kMicrosPerSecond));
}

TEST(DownsamplerTest, RejectsOutOfOrder) {
  Downsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(100 * kMicrosPerSecond));
  EXPECT_FALSE(ds.Accept(50 * kMicrosPerSecond));
}

TEST(DownsamplerTest, ResetForgetsHistory) {
  Downsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(100 * kMicrosPerSecond));
  ds.Reset();
  EXPECT_TRUE(ds.Accept(0));
}

TEST(FleetDownsamplerTest, IndependentPerVessel) {
  FleetDownsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(111, 0));
  EXPECT_TRUE(ds.Accept(222, 0));
  EXPECT_FALSE(ds.Accept(111, 10 * kMicrosPerSecond));
  EXPECT_FALSE(ds.Accept(222, 10 * kMicrosPerSecond));
  EXPECT_TRUE(ds.Accept(111, 31 * kMicrosPerSecond));
  EXPECT_EQ(ds.TrackedVessels(), 2u);
}

// ---------------------------------------------------------- Segmentation

TEST(SegmentTrajectoryTest, SplitsOnGaps) {
  std::vector<AisPosition> track;
  TimeMicros t = 0;
  for (int i = 0; i < 10; ++i) {
    track.push_back(MakeReport(1, t, 38.0 + 0.001 * i, 24.0));
    t += kMicrosPerMinute;
  }
  t += 2 * 60 * kMicrosPerMinute;  // 2-hour gap
  for (int i = 0; i < 5; ++i) {
    track.push_back(MakeReport(1, t, 39.0 + 0.001 * i, 24.0));
    t += kMicrosPerMinute;
  }
  const auto segments = SegmentTrajectory(track, 30 * kMicrosPerMinute);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].size(), 10u);
  EXPECT_EQ(segments[1].size(), 5u);
}

TEST(SegmentTrajectoryTest, DropsSingletonSegments) {
  std::vector<AisPosition> track;
  track.push_back(MakeReport(1, 0, 38.0, 24.0));
  track.push_back(MakeReport(1, 100 * kMicrosPerMinute, 38.5, 24.0));
  track.push_back(MakeReport(1, 200 * kMicrosPerMinute, 39.0, 24.0));
  const auto segments = SegmentTrajectory(track, 30 * kMicrosPerMinute);
  EXPECT_TRUE(segments.empty());
}

TEST(SegmentTrajectoryTest, EmptyInput) {
  EXPECT_TRUE(SegmentTrajectory({}, kMicrosPerMinute).empty());
}

TEST(InterpolatePositionTest, LinearBetweenPoints) {
  std::vector<AisPosition> segment;
  segment.push_back(MakeReport(1, 0, 38.0, 24.0));
  segment.push_back(MakeReport(1, 10 * kMicrosPerMinute, 39.0, 25.0));
  StatusOr<LatLng> mid = InterpolatePosition(segment, 5 * kMicrosPerMinute);
  ASSERT_TRUE(mid.ok());
  EXPECT_NEAR(mid->lat_deg, 38.5, 1e-9);
  EXPECT_NEAR(mid->lon_deg, 24.5, 1e-9);
}

TEST(InterpolatePositionTest, ExactEndpoints) {
  std::vector<AisPosition> segment;
  segment.push_back(MakeReport(1, 0, 38.0, 24.0));
  segment.push_back(MakeReport(1, 10 * kMicrosPerMinute, 39.0, 25.0));
  EXPECT_NEAR(InterpolatePosition(segment, 0)->lat_deg, 38.0, 1e-12);
  EXPECT_NEAR(InterpolatePosition(segment, 10 * kMicrosPerMinute)->lat_deg,
              39.0, 1e-12);
}

TEST(InterpolatePositionTest, OutsideSpanFails) {
  std::vector<AisPosition> segment;
  segment.push_back(MakeReport(1, kMicrosPerMinute, 38.0, 24.0));
  segment.push_back(MakeReport(1, 2 * kMicrosPerMinute, 39.0, 25.0));
  EXPECT_FALSE(InterpolatePosition(segment, 0).ok());
  EXPECT_FALSE(InterpolatePosition(segment, 3 * kMicrosPerMinute).ok());
  EXPECT_FALSE(InterpolatePosition({}, 0).ok());
}

// ---------------------------------------------------------- Sample builder

std::vector<AisPosition> StraightTrack(Mmsi mmsi, int points,
                                       TimeMicros interval,
                                       double lat0 = 38.0, double lon0 = 24.0) {
  // Eastward at ~12 knots: about 0.0033 deg lon per minute at lat 38.
  std::vector<AisPosition> track;
  for (int i = 0; i < points; ++i) {
    const double minutes =
        static_cast<double>(i) * static_cast<double>(interval) / kMicrosPerMinute;
    track.push_back(
        MakeReport(mmsi, i * interval, lat0, lon0 + 0.0033 * minutes));
  }
  return track;
}

TEST(BuildSvrfSamplesTest, ProducesFixedShapeSamples) {
  // 1-minute spacing, 120 points = 2 hours. Anchors need 20 history points
  // and 30 minutes of future -> plenty of samples.
  const auto track = StraightTrack(1, 120, kMicrosPerMinute);
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_GT(samples.size(), 10u);
  for (const auto& s : samples) {
    for (const auto& d : s.input.displacements) {
      EXPECT_GT(d.dt_sec, 0.0);
    }
    for (const auto& t : s.targets) {
      EXPECT_DOUBLE_EQ(t.dt_sec, 300.0);
    }
  }
}

TEST(BuildSvrfSamplesTest, TargetsMatchGroundTruthOnStraightTrack) {
  const auto track = StraightTrack(1, 120, kMicrosPerMinute);
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_FALSE(samples.empty());
  // Constant eastward speed: every 5-minute transition is 5*0.0033 deg lon.
  for (const auto& s : samples) {
    for (const auto& t : s.targets) {
      EXPECT_NEAR(t.dlon_deg, 0.0165, 1e-9);
      EXPECT_NEAR(t.dlat_deg, 0.0, 1e-9);
    }
  }
}

TEST(BuildSvrfSamplesTest, TooShortTrackYieldsNothing) {
  const auto track = StraightTrack(1, 15, kMicrosPerMinute);
  EXPECT_TRUE(BuildSvrfSamples(track, SampleBuilderOptions{}).empty());
}

TEST(BuildSvrfSamplesTest, StrideReducesSampleCount) {
  const auto track = StraightTrack(1, 200, kMicrosPerMinute);
  SampleBuilderOptions dense;
  SampleBuilderOptions sparse;
  sparse.stride = 5;
  const auto a = BuildSvrfSamples(track, dense);
  const auto b = BuildSvrfSamples(track, sparse);
  EXPECT_GT(a.size(), b.size() * 3);
}

TEST(BuildSvrfSamplesTest, DownsamplingShrinksDenseTracks) {
  // 10-second spacing gets reduced to >= 30 s spacing first.
  const auto track = StraightTrack(1, 720, 10 * kMicrosPerSecond);
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    for (const auto& d : s.input.displacements) {
      EXPECT_GE(d.dt_sec, 30.0);
    }
  }
}

// ---------------------------------------------------------- VesselHistory

TEST(VesselHistoryTest, BecomesReadyAfter21AcceptedPoints) {
  VesselHistory history;
  TimeMicros t = 0;
  for (int i = 0; i < kSvrfInputLength; ++i) {
    EXPECT_TRUE(history.Push(MakeReport(1, t, 38.0, 24.0 + i * 0.001)));
    EXPECT_FALSE(history.Ready());
    t += kMicrosPerMinute;
  }
  EXPECT_TRUE(history.Push(MakeReport(1, t, 38.0, 25.0)));
  EXPECT_TRUE(history.Ready());
}

TEST(VesselHistoryTest, DownsamplesAndRejectsStale) {
  VesselHistory history;
  EXPECT_TRUE(history.Push(MakeReport(1, kMicrosPerMinute, 38.0, 24.0)));
  // Too soon (< 30 s after).
  EXPECT_FALSE(history.Push(
      MakeReport(1, kMicrosPerMinute + 5 * kMicrosPerSecond, 38.0, 24.0)));
  // Older timestamp.
  EXPECT_FALSE(history.Push(MakeReport(1, 0, 38.0, 24.0)));
  EXPECT_EQ(history.size(), 1u);
}

TEST(VesselHistoryTest, MakeInputUsesMostRecentWindow) {
  VesselHistory history;
  TimeMicros t = 0;
  for (int i = 0; i < 40; ++i) {
    history.Push(MakeReport(1, t, 38.0, 24.0 + i * 0.01));
    t += kMicrosPerMinute;
  }
  ASSERT_TRUE(history.Ready());
  const SvrfInput input = history.MakeInput();
  EXPECT_NEAR(input.anchor.lon_deg, 24.0 + 39 * 0.01, 1e-9);
  for (const auto& d : input.displacements) {
    EXPECT_NEAR(d.dlon_deg, 0.01, 1e-9);
    EXPECT_NEAR(d.dt_sec, 60.0, 1e-9);
  }
}

TEST(VesselHistoryTest, ClearResets) {
  VesselHistory history;
  for (int i = 0; i < 30; ++i) {
    history.Push(MakeReport(1, i * kMicrosPerMinute, 38.0, 24.0));
  }
  history.Clear();
  EXPECT_EQ(history.size(), 0u);
  EXPECT_FALSE(history.Ready());
  EXPECT_EQ(history.Latest(), nullptr);
  EXPECT_TRUE(history.Push(MakeReport(1, 0, 38.0, 24.0)));
}

}  // namespace
}  // namespace marlin

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "middleware/api_service.h"
#include "middleware/json.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

// ---------------------------------------------------------------- Json

TEST(JsonTest, Scalars) {
  EXPECT_EQ(JsonValue::Null().Dump(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Int(-42).Dump(), "-42");
  EXPECT_EQ(JsonValue::Str("hello").Dump(), "\"hello\"");
}

TEST(JsonTest, NumberFormatting) {
  EXPECT_EQ(JsonValue::Number(1.5).Dump(), "1.5");
  EXPECT_EQ(JsonValue::Number(37.123456).Dump(), "37.123456");
  EXPECT_EQ(JsonValue::Number(2.0).Dump(), "2.0");
  EXPECT_EQ(JsonValue::Number(std::nan("")).Dump(), "null");
  // Every integer digit survives, however large the magnitude.
  EXPECT_EQ(JsonValue::Number(1e40).Dump(),
            "10000000000000000303786028427003666890752.0");
  EXPECT_EQ(JsonValue::Number(-1e40).Dump(),
            "-10000000000000000303786028427003666890752.0");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(JsonValue::Str("a\"b").Dump(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::Str("line\nbreak").Dump(), "\"line\\nbreak\"");
  EXPECT_EQ(JsonValue::Str("back\\slash").Dump(), "\"back\\\\slash\"");
  EXPECT_EQ(JsonValue::Str(std::string(1, '\x01')).Dump(), "\"\\u0001\"");
}

TEST(JsonTest, ObjectsKeepInsertionOrderAndReplace) {
  JsonValue object = JsonValue::Object();
  object.Set("b", JsonValue::Int(1));
  object.Set("a", JsonValue::Int(2));
  object.Set("b", JsonValue::Int(3));  // replaces, keeps position
  EXPECT_EQ(object.Dump(), "{\"b\":3,\"a\":2}");
}

TEST(JsonTest, NestedStructures) {
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Int(1));
  JsonValue inner = JsonValue::Object();
  inner.Set("x", JsonValue::Bool(true));
  array.Append(std::move(inner));
  JsonValue root = JsonValue::Object();
  root.Set("items", std::move(array));
  EXPECT_EQ(root.Dump(), "{\"items\":[1,{\"x\":true}]}");
}

// ------------------------------------------------------------ ApiService

class ApiServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PipelineConfig config;
    config.actor_system.num_threads = 2;
    pipeline_ = std::make_unique<MaritimePipeline>(
        std::make_shared<LinearKinematicModel>(), config);
    ASSERT_TRUE(pipeline_->Start().ok());
    api_ = std::make_unique<ApiService>(pipeline_.get());
  }

  void FeedTrack(Mmsi mmsi, int points, double lat = 38.0) {
    LatLng position{lat, 24.0};
    for (int i = 0; i < points; ++i) {
      AisPosition report;
      report.mmsi = mmsi;
      report.timestamp = static_cast<TimeMicros>(i) * kMicrosPerMinute;
      report.position = position;
      report.sog_knots = 12.0;
      report.cog_deg = 90.0;
      ASSERT_TRUE(pipeline_->Ingest(report).ok());
      position = DestinationPoint(position, 90.0, 12.0 * kKnotsToMps * 60.0);
    }
    pipeline_->AwaitQuiescence();
  }

  std::unique_ptr<MaritimePipeline> pipeline_;
  std::unique_ptr<ApiService> api_;
};

TEST_F(ApiServiceTest, StatsRoute) {
  FeedTrack(100, 3);
  const ApiResponse response = api_->Handle("GET", "/stats");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"positions_ingested\":3"), std::string::npos);
  EXPECT_NE(response.body.find("\"actors\""), std::string::npos);
}

TEST_F(ApiServiceTest, VesselsListAndDetail) {
  FeedTrack(237000111, 2);
  const ApiResponse list = api_->Handle("GET", "/vessels");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("\"237000111\""), std::string::npos);
  const ApiResponse detail = api_->Handle("GET", "/vessels/237000111");
  EXPECT_EQ(detail.status, 200);
  EXPECT_NE(detail.body.find("\"lat\""), std::string::npos);
  EXPECT_NE(detail.body.find("\"sog\""), std::string::npos);
}

TEST_F(ApiServiceTest, VesselNotFound) {
  EXPECT_EQ(api_->Handle("GET", "/vessels/999").status, 404);
  EXPECT_EQ(api_->Handle("GET", "/vessels/notanumber").status, 400);
}

TEST_F(ApiServiceTest, ForecastRoute) {
  FeedTrack(237000222, kSvrfInputLength + 4);
  const ApiResponse response =
      api_->Handle("GET", "/vessels/237000222/forecast");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"points\""), std::string::npos);
  // Present + 6 predicted points serialised.
  size_t count = 0;
  for (size_t pos = 0;
       (pos = response.body.find("\"time\"", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(kSvrfOutputSteps + 1));
}

TEST_F(ApiServiceTest, ForecastBeforeWindowFillIs404) {
  FeedTrack(237000333, 3);
  EXPECT_EQ(api_->Handle("GET", "/vessels/237000333/forecast").status, 404);
}

TEST_F(ApiServiceTest, EventsRoute) {
  // Two close vessels produce a proximity event.
  FeedTrack(400, 2, 38.0);
  AisPosition close_by;
  close_by.mmsi = 401;
  close_by.timestamp = kMicrosPerMinute + kMicrosPerSecond;
  close_by.position =
      DestinationPoint(LatLng{38.0, 24.0}, 90.0, 12.0 * kKnotsToMps * 60.0);
  ASSERT_TRUE(pipeline_->Ingest(close_by).ok());
  pipeline_->AwaitQuiescence();
  const ApiResponse response = api_->Handle("GET", "/events?limit=10");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("Proximity"), std::string::npos);
  EXPECT_EQ(api_->Handle("GET", "/events?limit=0").status, 400);
  // Vessel-scoped events.
  const ApiResponse scoped = api_->Handle("GET", "/vessels/400/events");
  EXPECT_EQ(scoped.status, 200);
  EXPECT_NE(scoped.body.find("Proximity"), std::string::npos);
}

TEST_F(ApiServiceTest, TrafficRoute) {
  FeedTrack(237000444, kSvrfInputLength + 4);
  const ApiResponse response = api_->Handle("GET", "/traffic/3");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"total_vessels\":1"), std::string::npos);
  EXPECT_EQ(api_->Handle("GET", "/traffic/0").status, 400);
  EXPECT_EQ(api_->Handle("GET", "/traffic/7").status, 400);
  EXPECT_EQ(api_->Handle("GET", "/traffic").status, 400);
}

TEST_F(ApiServiceTest, ViewportRoute) {
  FeedTrack(237000555, 2, 38.0);   // near lat 38, lon 24
  FeedTrack(237000666, 2, -20.0);  // far away
  const ApiResponse response = api_->Handle(
      "GET", "/viewport?min_lat=37&min_lon=23&max_lat=39&max_lon=26");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("237000555"), std::string::npos);
  EXPECT_EQ(response.body.find("237000666"), std::string::npos);
  EXPECT_EQ(api_->Handle("GET", "/viewport?min_lat=1").status, 400);
}

TEST_F(ApiServiceTest, PatternsRoute) {
  FeedTrack(237000777, 10);
  const ApiResponse response = api_->Handle("GET", "/patterns?top=5");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"observations\""), std::string::npos);
  EXPECT_NE(response.body.find("\"mean_sog\""), std::string::npos);
  EXPECT_EQ(api_->Handle("GET", "/patterns?top=0").status, 400);
  // Pipeline-level accessor agrees.
  const auto cells = pipeline_->Patterns(5);
  ASSERT_FALSE(cells.empty());
  int64_t total = 0;
  for (const auto& cell : cells) total += cell.observations;
  EXPECT_EQ(total, 10);
}

TEST_F(ApiServiceTest, RoutingErrors) {
  EXPECT_EQ(api_->Handle("POST", "/stats").status, 405);
  EXPECT_EQ(api_->Handle("GET", "/nope").status, 404);
  EXPECT_EQ(api_->Handle("GET", "/").status, 404);
}

TEST_F(ApiServiceTest, ClusterRoute404WithoutProviderAnd200With) {
  // Single-node deployment: no provider registered.
  EXPECT_EQ(api_->Handle("GET", "/cluster").status, 404);
  // A deployment running a ClusterNode plugs its StatusJson in.
  api_->set_cluster_status_provider(
      [] { return std::string(R"({"self":1,"epoch":2})"); });
  const ApiResponse response = api_->Handle("GET", "/cluster");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"epoch\":2"), std::string::npos);
}

TEST(PortsActorTest, ApiRouteServesPortStatus) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.monitored_ports = {{"Gamma", LatLng{51.95, 4.05}}};
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  AisPosition in_port;
  in_port.mmsi = 9;
  in_port.timestamp = kMicrosPerMinute;
  in_port.position = LatLng{51.96, 4.06};
  in_port.sog_knots = 1.0;
  in_port.cog_deg = 90.0;
  ASSERT_TRUE(pipeline.Ingest(in_port).ok());
  pipeline.AwaitQuiescence();
  ApiService api(&pipeline);
  const ApiResponse response = api.Handle("GET", "/ports");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"Gamma\""), std::string::npos);
  EXPECT_NE(response.body.find("\"occupancy\":1"), std::string::npos);
}

}  // namespace
}  // namespace marlin

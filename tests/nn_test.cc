#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/model.h"
#include "util/rng.h"

namespace marlin {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3), b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Matrix c;
  MatMul(a, b, &c);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposedMultipliesAgreeWithExplicit) {
  Rng rng(3);
  Matrix a(4, 5), b(4, 3);
  a.FillNormal(&rng, 1.0);
  b.FillNormal(&rng, 1.0);
  // a^T b via MatMulTransposeA vs explicit transpose.
  Matrix at(5, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 5; ++c) at(c, r) = a(r, c);
  }
  Matrix expected, got;
  MatMul(at, b, &expected);
  MatMulTransposeA(a, b, &got);
  ASSERT_TRUE(expected.SameShape(got));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.storage()[i], got.storage()[i], 1e-12);
  }
  // a b^T via MatMulTransposeB.
  Matrix c(5, 4), d(3, 4);
  c.FillNormal(&rng, 1.0);
  d.FillNormal(&rng, 1.0);
  Matrix dt(4, 3);
  for (int r = 0; r < 3; ++r) {
    for (int col = 0; col < 4; ++col) dt(col, r) = d(r, col);
  }
  Matrix expected2, got2;
  MatMul(c, dt, &expected2);
  MatMulTransposeB(c, d, &got2);
  for (size_t i = 0; i < expected2.size(); ++i) {
    EXPECT_NEAR(expected2.storage()[i], got2.storage()[i], 1e-12);
  }
}

TEST(MatrixTest, ConcatSplitRoundTrip) {
  Rng rng(5);
  Matrix top(2, 3), bottom(4, 3);
  top.FillNormal(&rng, 1.0);
  bottom.FillNormal(&rng, 1.0);
  Matrix joined;
  ConcatRows(top, bottom, &joined);
  EXPECT_EQ(joined.rows(), 6);
  Matrix top2, bottom2;
  SplitRows(joined, 2, &top2, &bottom2);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_DOUBLE_EQ(top.storage()[i], top2.storage()[i]);
  }
  for (size_t i = 0; i < bottom.size(); ++i) {
    EXPECT_DOUBLE_EQ(bottom.storage()[i], bottom2.storage()[i]);
  }
}

TEST(MatrixTest, BroadcastAndHadamard) {
  Matrix a(2, 2), bias(2, 1), out;
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  bias(0, 0) = 10;
  bias(1, 0) = 20;
  AddColumnBroadcast(a, bias, &out);
  EXPECT_DOUBLE_EQ(out(0, 1), 12.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 23.0);
  Matrix h;
  Hadamard(a, a, &h);
  EXPECT_DOUBLE_EQ(h(1, 1), 16.0);
}

TEST(MatrixTest, Norms) {
  Matrix m(1, 3);
  m(0, 0) = -3.0;
  m(0, 1) = 4.0;
  m(0, 2) = 0.0;
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(m.L1Norm(), 7.0);
}

TEST(MatrixTest, XavierInitBounded) {
  Rng rng(7);
  Matrix m(20, 30);
  m.FillXavier(&rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (double v : m.storage()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

// -------------------------------------------------------- Gradient checks

/// Numerically checks dLoss/dparam for every parameter of `model` against
/// the analytic gradients accumulated by TrainBatch.
void GradientCheck(SequenceRegressor* model, const std::vector<Matrix>& inputs,
                   const Matrix& targets, double tolerance) {
  for (Parameter* p : model->Params()) p->ZeroGrad();
  model->TrainBatch(inputs, targets, /*l1_lambda=*/0.0);
  const double eps = 1e-5;
  for (Parameter* p : model->Params()) {
    // Sample a subset of elements to keep the test fast.
    const size_t stride = std::max<size_t>(1, p->value.size() / 25);
    for (size_t i = 0; i < p->value.size(); i += stride) {
      const double saved = p->value.storage()[i];
      p->value.storage()[i] = saved + eps;
      const double plus = model->Evaluate(inputs, targets);
      p->value.storage()[i] = saved - eps;
      const double minus = model->Evaluate(inputs, targets);
      p->value.storage()[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      const double analytic = p->grad.storage()[i];
      const double scale =
          std::max({1.0, std::abs(numeric), std::abs(analytic)});
      EXPECT_NEAR(analytic / scale, numeric / scale, tolerance)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(GradientCheckTest, FullModelBackpropMatchesFiniteDifferences) {
  SequenceRegressor::Config config;
  config.input_dim = 2;
  config.hidden_dim = 3;
  config.dense_dim = 4;
  config.output_dim = 2;
  config.seed = 99;
  SequenceRegressor model(config);
  Rng rng(123);
  const int steps = 4, batch = 3;
  std::vector<Matrix> inputs(steps);
  for (int t = 0; t < steps; ++t) {
    inputs[t] = Matrix(config.input_dim, batch);
    inputs[t].FillNormal(&rng, 1.0);
  }
  Matrix targets(config.output_dim, batch);
  targets.FillNormal(&rng, 1.0);
  GradientCheck(&model, inputs, targets, 1e-5);
}

TEST(GradientCheckTest, SingleStepSequence) {
  SequenceRegressor::Config config;
  config.input_dim = 3;
  config.hidden_dim = 2;
  config.dense_dim = 3;
  config.output_dim = 1;
  config.seed = 7;
  SequenceRegressor model(config);
  Rng rng(55);
  std::vector<Matrix> inputs(1);
  inputs[0] = Matrix(3, 2);
  inputs[0].FillNormal(&rng, 1.0);
  Matrix targets(1, 2);
  targets.FillNormal(&rng, 1.0);
  GradientCheck(&model, inputs, targets, 1e-5);
}

TEST(GradientCheckTest, LongerSequenceBptt) {
  SequenceRegressor::Config config;
  config.input_dim = 2;
  config.hidden_dim = 2;
  config.dense_dim = 2;
  config.output_dim = 3;
  config.seed = 31;
  SequenceRegressor model(config);
  Rng rng(77);
  const int steps = 12, batch = 2;
  std::vector<Matrix> inputs(steps);
  for (int t = 0; t < steps; ++t) {
    inputs[t] = Matrix(2, batch);
    inputs[t].FillNormal(&rng, 0.7);
  }
  Matrix targets(3, batch);
  targets.FillNormal(&rng, 1.0);
  GradientCheck(&model, inputs, targets, 1e-5);
}

// ---------------------------------------------------------------- Layers

TEST(DenseTest, ForwardComputesAffineTransform) {
  Rng rng(1);
  Dense layer("d", 2, 2, Dense::Activation::kLinear, &rng);
  // Overwrite with known weights.
  Parameter* w = layer.Params()[0];
  Parameter* b = layer.Params()[1];
  w->value(0, 0) = 1.0;
  w->value(0, 1) = 2.0;
  w->value(1, 0) = 3.0;
  w->value(1, 1) = 4.0;
  b->value(0, 0) = 0.5;
  b->value(1, 0) = -0.5;
  Matrix x(2, 1);
  x(0, 0) = 1.0;
  x(1, 0) = 1.0;
  const Matrix& y = layer.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(y(1, 0), 6.5);
}

TEST(LstmCellTest, ForgetGateBiasInitialisedToOne) {
  Rng rng(2);
  LstmCell cell("lstm", 3, 4, &rng);
  Parameter* bias = cell.Params()[1];
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(bias->value(4 + j, 0), 1.0);  // forget block
    EXPECT_DOUBLE_EQ(bias->value(j, 0), 0.0);      // input block
  }
}

TEST(LstmCellTest, HiddenStatesBounded) {
  Rng rng(3);
  LstmCell cell("lstm", 3, 8, &rng);
  std::vector<Matrix> inputs(10);
  for (auto& x : inputs) {
    x = Matrix(3, 4);
    x.FillNormal(&rng, 3.0);
  }
  const Matrix& h = cell.Forward(inputs);
  for (double v : h.storage()) {
    EXPECT_LT(std::abs(v), 1.0);  // |h| = |o * tanh(c)| < 1
  }
  EXPECT_EQ(cell.hidden_states().size(), 10u);
}

TEST(BiLstmTest, OutputConcatenatesBothDirections) {
  Rng rng(4);
  BiLstm layer("bi", 2, 3, &rng);
  std::vector<Matrix> inputs(5);
  for (auto& x : inputs) {
    x = Matrix(2, 2);
    x.FillNormal(&rng, 1.0);
  }
  const Matrix& out = layer.Forward(inputs);
  EXPECT_EQ(out.rows(), 6);  // 2 * hidden
  EXPECT_EQ(out.cols(), 2);
  EXPECT_EQ(layer.output_dim(), 6);
  EXPECT_EQ(layer.Params().size(), 4u);  // W,b per direction
}

TEST(BiLstmTest, DirectionSensitivity) {
  // A BiLSTM must distinguish a sequence from its reverse (a plain
  // mean-pool would not).
  Rng rng(5);
  BiLstm layer("bi", 1, 4, &rng);
  std::vector<Matrix> seq(6), rev(6);
  for (int t = 0; t < 6; ++t) {
    seq[t] = Matrix(1, 1);
    seq[t](0, 0) = t * 0.3;
    rev[5 - t] = seq[t];
  }
  Matrix out1 = layer.Forward(seq);
  Matrix out2 = layer.Forward(rev);
  double diff = 0.0;
  for (size_t i = 0; i < out1.size(); ++i) {
    diff += std::abs(out1.storage()[i] - out2.storage()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

// ---------------------------------------------------------------- Adam

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimise (w - 3)^2 via the optimizer interface.
  Parameter w("w", 1, 1);
  w.value(0, 0) = -5.0;
  AdamOptimizer::Options options;
  options.learning_rate = 0.1;
  AdamOptimizer adam(options);
  for (int i = 0; i < 500; ++i) {
    w.grad(0, 0) = 2.0 * (w.value(0, 0) - 3.0);
    adam.Step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 3.0, 1e-2);
  EXPECT_EQ(adam.step_count(), 500);
}

TEST(AdamTest, L1PushesRegularisedWeightsTowardZero) {
  Parameter reg("r", 1, 1, /*l1=*/true);
  Parameter free("f", 1, 1, /*l1=*/false);
  reg.value(0, 0) = 0.5;
  free.value(0, 0) = 0.5;
  AdamOptimizer::Options options;
  options.learning_rate = 0.01;
  options.l1_lambda = 1.0;
  AdamOptimizer adam(options);
  for (int i = 0; i < 100; ++i) {
    reg.grad(0, 0) = 0.0;  // no data gradient: only the penalty acts
    free.grad(0, 0) = 0.0;
    adam.Step({&reg, &free});
  }
  EXPECT_LT(std::abs(reg.value(0, 0)), 0.2);
  EXPECT_DOUBLE_EQ(free.value(0, 0), 0.5);
}

TEST(ClipNormTest, ClipsLargeGradients) {
  Parameter p("p", 2, 2);
  p.grad(0, 0) = 30.0;
  p.grad(1, 1) = 40.0;  // norm 50
  AdamOptimizer::Options options;
  options.clip_norm = 5.0;
  options.learning_rate = 0.0;  // isolate the clipping effect
  AdamOptimizer adam(options);
  adam.Step({&p});
  // Gradient was zeroed by Step; verify through a second parameter trick:
  // re-run with lr > 0 and check the update magnitude is bounded.
  Parameter q("q", 1, 1);
  q.grad(0, 0) = 1000.0;
  AdamOptimizer::Options options2;
  options2.clip_norm = 1.0;
  options2.learning_rate = 0.1;
  AdamOptimizer adam2(options2);
  adam2.Step({&q});
  // With Adam the first-step update is ~lr regardless, but the moment
  // estimate built from the clipped gradient is 1.0, not 1000.
  EXPECT_NEAR(q.adam_m(0, 0), 0.1, 1e-9);  // (1-beta1) * clipped(1.0)
}

TEST(ClipNormTest, SmallGradientsUntouched) {
  Parameter p("p", 1, 1);
  p.grad(0, 0) = 0.5;
  AdamOptimizer::Options options;
  options.clip_norm = 10.0;
  AdamOptimizer adam(options);
  adam.Step({&p});
  EXPECT_NEAR(p.adam_m(0, 0), 0.05, 1e-12);  // (1-beta1) * 0.5 unclipped
}

TEST(ClipNormTest, TrainingWithClippingStillLearns) {
  SequenceRegressor::Config config;
  config.input_dim = 1;
  config.hidden_dim = 4;
  config.dense_dim = 4;
  config.output_dim = 1;
  SequenceRegressor model(config);
  Rng rng(12);
  std::vector<SeqSample> train(150);
  for (auto& sample : train) {
    sample.steps.assign(4, {0.0});
    double sum = 0.0;
    for (auto& step : sample.steps) {
      step[0] = rng.Uniform(-0.5, 0.5);
      sum += step[0];
    }
    sample.target = {sum};
  }
  const double before = Trainer::Mse(&model, train);
  Trainer::Options options;
  options.epochs = 30;
  options.learning_rate = 5e-3;
  options.clip_norm = 1.0;
  options.l1_lambda = 0.0;
  Trainer trainer(options);
  trainer.Fit(&model, train);
  EXPECT_LT(Trainer::Mse(&model, train), before * 0.3);
}

// ---------------------------------------------------------------- Training

std::vector<SeqSample> MakeSumDataset(int n, int steps, uint64_t seed) {
  // Target: [sum of first feature over time, last value of second feature].
  Rng rng(seed);
  std::vector<SeqSample> dataset(n);
  for (auto& sample : dataset) {
    sample.steps.resize(steps);
    double sum = 0.0, last = 0.0;
    for (int t = 0; t < steps; ++t) {
      const double a = rng.Uniform(-0.5, 0.5);
      const double b = rng.Uniform(-0.5, 0.5);
      sample.steps[t] = {a, b};
      sum += a;
      last = b;
    }
    sample.target = {sum * 0.3, last};
  }
  return dataset;
}

TEST(TrainerTest, LearnsSequenceRegression) {
  SequenceRegressor::Config config;
  config.input_dim = 2;
  config.hidden_dim = 8;
  config.dense_dim = 8;
  config.output_dim = 2;
  config.seed = 11;
  SequenceRegressor model(config);
  const auto train = MakeSumDataset(600, 6, 101);
  const auto test = MakeSumDataset(150, 6, 202);
  const double before = Trainer::Mse(&model, test);
  Trainer::Options options;
  options.epochs = 30;
  options.batch_size = 32;
  options.learning_rate = 5e-3;
  options.l1_lambda = 0.0;
  Trainer trainer(options);
  trainer.Fit(&model, train);
  const double after = Trainer::Mse(&model, test);
  EXPECT_LT(after, before * 0.2) << "before=" << before << " after=" << after;
}

TEST(TrainerTest, ValidationLossesReported) {
  SequenceRegressor::Config config;
  config.input_dim = 2;
  config.hidden_dim = 4;
  config.dense_dim = 4;
  config.output_dim = 2;
  SequenceRegressor model(config);
  const auto train = MakeSumDataset(100, 4, 303);
  const auto val = MakeSumDataset(40, 4, 404);
  Trainer::Options options;
  options.epochs = 3;
  Trainer trainer(options);
  std::vector<double> losses;
  trainer.Fit(&model, train, val, &losses);
  EXPECT_EQ(losses.size(), 3u);
  for (double l : losses) EXPECT_GT(l, 0.0);
}

TEST(TrainerTest, EmptyDatasetIsNoop) {
  SequenceRegressor::Config config;
  SequenceRegressor model(config);
  Trainer trainer(Trainer::Options{});
  EXPECT_DOUBLE_EQ(trainer.Fit(&model, {}), 0.0);
  EXPECT_DOUBLE_EQ(Trainer::Mse(&model, {}), 0.0);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  const auto train = MakeSumDataset(200, 5, 505);
  auto run = [&train]() {
    SequenceRegressor::Config config;
    config.input_dim = 2;
    config.hidden_dim = 4;
    config.dense_dim = 4;
    config.output_dim = 2;
    config.seed = 1234;
    SequenceRegressor model(config);
    Trainer::Options options;
    options.epochs = 4;
    options.shuffle_seed = 77;
    Trainer trainer(options);
    return trainer.Fit(&model, train);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// ------------------------------------------------------------ Serialization

TEST(SerializationTest, RoundTripPreservesPredictions) {
  SequenceRegressor::Config config;
  config.input_dim = 3;
  config.hidden_dim = 5;
  config.dense_dim = 6;
  config.output_dim = 4;
  config.seed = 19;
  SequenceRegressor model(config);
  // Perturb away from init to make the test meaningful.
  Rng rng(21);
  for (Parameter* p : model.Params()) {
    for (double& v : p->value.storage()) v += rng.Normal(0.0, 0.1);
  }
  const std::string blob = model.Serialize();
  SequenceRegressor restored(config);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  std::vector<std::vector<double>> steps(7, std::vector<double>{0.1, -0.2, 0.3});
  const auto a = model.Predict(steps);
  const auto b = restored.Predict(steps);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(SerializationTest, RejectsBadBlobs) {
  SequenceRegressor::Config config;
  SequenceRegressor model(config);
  EXPECT_FALSE(model.Deserialize("").ok());
  EXPECT_FALSE(model.Deserialize("not-a-model 1 2 3 4").ok());
  SequenceRegressor::Config other = config;
  other.hidden_dim = config.hidden_dim + 1;
  SequenceRegressor mismatched(other);
  EXPECT_EQ(model.Deserialize(mismatched.Serialize()).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace marlin

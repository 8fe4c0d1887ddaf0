"""End-to-end forecast on a small synthetic station network.

Generates six stations of coupled hourly demand, assembles the channel
stack, pretrains a backbone, then freezes and adapts it with low-rank
factors before scoring against the persistence baseline. Runs in a few
seconds.
"""

import numpy as np

from chargecast import seeds
from chargecast.bands import DecomposeConfig
from chargecast.channels import ChannelConfig, assemble_channels
from chargecast.domain import CalendarFrame, SeriesTensor, StationGraph, split_windows
from chargecast.io import apply_holidays
from chargecast.losses import LossConfig
from chargecast.model import ModelConfig, build_model, freeze_and_adapt, trainable_parameter_count
from chargecast.synth import generate
from chargecast.training import TrainConfig, evaluate, fit
from chargecast.vmd import VmdConfig

SEED = 42

MODEL = ModelConfig(
    d_embed=8, lookback=8, horizon=3, c_in=6,
    f_frozen=1, u_unfrozen=1, heads=2, rank=2,
)
CHANNELS = ChannelConfig(
    decompose=DecomposeConfig(vmd=VmdConfig(K=4, alpha=200.0), ensemble_n=8, noise_amp=0.1),
    granule_windows=(24,),
    relieff_k=10,
    top_n=0,
)


def build_dataset(seed):
    data = generate(seed, n_stations=6, days=45, graph_density=0.5, noise_amp=0.1)
    graph = StationGraph(data.node_ids, data.adjacency)
    series = SeriesTensor(data.values[:, :, None])
    calendar = apply_holidays(CalendarFrame(data.timestamps), data.holidays)
    assembled = assemble_channels(series, calendar, seed, CHANNELS)
    print(f"channels: {', '.join(assembled.channel_names)}")

    return graph, split_windows(assembled.series, calendar, MODEL.lookback, MODEL.horizon)


def main():
    graph, (train_w, valid_w, test_w) = build_dataset(SEED)
    print(f"windows: train {len(train_w)}, valid {len(valid_w)}, test {len(test_w)}")

    model = build_model(MODEL, seeds.substream(SEED, "model.init"))
    print(f"backbone parameters: {model.trainable_count()}")
    fit(
        model, train_w, valid_w, graph,
        TrainConfig(learning_rate=0.02, max_epochs=6, batch_size=64, seed=SEED,
                    freeze_mode="none"),
        LossConfig(),
    )

    freeze_and_adapt(model, seeds.substream(SEED, "adapt"), freeze_mode="partial")
    n_trainable = model.trainable_count()
    assert n_trainable == trainable_parameter_count(MODEL, "partial")
    print(f"after freezing: {n_trainable} trainable "
          f"({100.0 * n_trainable / trainable_parameter_count(MODEL, 'none'):.0f}% of full)")

    result = fit(
        model, train_w, valid_w, graph,
        TrainConfig(learning_rate=0.02, max_epochs=15, batch_size=64, seed=SEED,
                    freeze_mode="partial"),
        LossConfig(lambda_freq=0.1),
    )
    print(f"best validation MAE {result.best_valid_mae:.4f} at epoch {result.best_epoch}")

    report = evaluate(model, test_w, graph)
    print()
    print(f"test MAE          {report.aggregate['mae']:.4f}")
    print(f"persistence MAE   {report.baseline['mae']:.4f}")
    for step, row in enumerate(report.per_step, start=1):
        print(f"  {step} step(s) ahead: mae {row['mae']:.4f}  rmse {row['rmse']:.4f}")
    gain = 1.0 - report.aggregate["mae"] / report.baseline["mae"]
    print(f"improvement over persistence: {100.0 * gain:.1f}%")


if __name__ == "__main__":
    main()

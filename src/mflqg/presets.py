"""Built-in example: a population of space heaters tracking a temperature
target.

Thirty rooms relax geometrically toward the ambient temperature; each local
controller trades off keeping its own room near that room's initial
temperature (comfort), control energy, and steering the population average
to a reference. The ambient term is affine, but because the ambient equals
the initial mean temperature it is absorbed exactly by working in
deviation-from-ambient coordinates; exported traces shift back to real
temperatures through the model's reporting offset.
"""
from __future__ import annotations

from .model import LqMeanFieldModel, augment_for_tracking, build_model

HEATER = {
    "n_agents": 30,
    "horizon": 90,
    "a": 0.8,                 # relaxation toward ambient per step
    "b": 1.0,                 # control effectiveness
    "q": 0.5,                 # weight on (room - own initial temperature)^2
    "r": 1.0,                 # weight on control energy
    "p": 1.0,                 # weight on (mean temperature - reference)^2
    "ambient": 22.0,
    "initial_mean": 22.0,
    "initial_variance": 2.0,
    "process_variance": 1.0,
    "reference": 25.0,
}


def heater_base_model() -> LqMeanFieldModel:
    """The heater population in deviation-from-ambient coordinates, before
    the tracking objective is attached (the placeholder cost is discarded
    by the augmentation)."""
    return build_model(
        horizon=HEATER["horizon"],
        n_agents=HEATER["n_agents"],
        A=HEATER["a"],
        B=HEATER["b"],
        Q=0.0,
        R=HEATER["r"],
        Sigma_X=HEATER["initial_variance"],
        Sigma_W=HEATER["process_variance"],
        initial_mean=HEATER["initial_mean"] - HEATER["ambient"],
        state_offset=HEATER["ambient"],
    )


def heater_model() -> LqMeanFieldModel:
    """The tracking-augmented heater model (state: room temperature, frozen
    initial temperature, constant 1; all in deviation coordinates)."""
    return augment_for_tracking(
        heater_base_model(),
        q=HEATER["q"],
        r=HEATER["r"],
        p=HEATER["p"],
        meanfield_reference=HEATER["reference"] - HEATER["ambient"],
    )

//! Shared fixtures of the `report bench-fields` kernel benchmarks: the
//! reference cage plane and the standard populated simulator.

use labchip::prelude::{Biochip, ChipSimulator, SimulationConfig};
use labchip_physics::field::superposition::SuperpositionField;
use labchip_physics::field::{ElectrodePhase, ElectrodePlane};
use labchip_units::{GridCoord, GridDims, Meters, Seconds, Vec3, Volts};

/// Reference plane (20 µm pitch, 3.3 V, 80 µm chamber) with a single cage at
/// the array centre.
pub fn cage_plane(side: u32) -> ElectrodePlane {
    let mut plane = ElectrodePlane::new(
        GridDims::square(side),
        Meters::from_micrometers(20.0),
        Volts::new(3.3),
        Meters::from_micrometers(80.0),
    );
    plane.set_phase(
        GridCoord::new(side / 2, side / 2),
        ElectrodePhase::CounterPhase,
    );
    plane
}

/// [`cage_plane`] wrapped in the fast field model.
pub fn cage_field(side: u32) -> SuperpositionField {
    SuperpositionField::new(cage_plane(side))
}

/// The standard simulator benchmark workload: a 64×64 chip programmed with
/// the standard cage lattice and `particles` cells spread deterministically
/// (low-discrepancy additive recurrences) through the chamber.
pub fn populated_simulator(threads: usize, particles: u32) -> ChipSimulator {
    let mut chip = Biochip::small_reference(64);
    let pattern = labchip_array::pattern::CagePattern::standard_lattice(chip.array().dims())
        .expect("lattice fits");
    chip.program_pattern(&pattern).expect("pattern fits");
    let mut sim = ChipSimulator::new(
        chip,
        SimulationConfig {
            dt: Seconds::from_millis(0.5),
            brownian: true,
            seed: 9,
        },
    )
    .with_threads(threads);
    let cell = *sim.chip().reference_particle();
    let width = sim.chip().array().to_electrode_plane().width();
    for i in 0..particles {
        let fx = (i as f64 * 0.754_877_666) % 1.0;
        let fy = (i as f64 * 0.569_840_296) % 1.0;
        let z = 15e-6 + 50e-6 * ((i as f64 * 0.381_966_011) % 1.0);
        sim.add_particle(
            cell,
            Vec3::new((0.05 + 0.9 * fx) * width, (0.05 + 0.9 * fy) * width, z),
        )
        .expect("inside the chamber");
    }
    sim
}

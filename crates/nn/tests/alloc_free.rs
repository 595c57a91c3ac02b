//! The training step allocates nothing: a counting global allocator sees
//! zero allocations on this thread across `ActorCritic::sample_into` and
//! `ActorCritic::update`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use atlas_nn::{ActorCritic, ActorCriticConfig};

thread_local! {
    /// Allocations made by the current thread (const-initialised and
    /// without a destructor, so touching it never allocates itself).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn update_and_sample_into_do_not_allocate() {
    // The serving dims: 100 components, 200 → 48 → 48 → 100 actor.
    let config = ActorCriticConfig {
        actor_hidden: vec![48, 48],
        ..ActorCriticConfig::default()
    };
    let mut agent = ActorCritic::new(200, 100, config);
    let state: Vec<f64> = (0..200).map(|i| f64::from(i % 3 == 0)).collect();
    let mut action = Vec::new();
    agent.sample_into(&state, &mut action); // sizes the caller's buffer

    // The counter does count: the allocating entry point shows up.
    assert!(allocations_during(|| drop(agent.sample(&state))) > 0);

    let allocations = allocations_during(|| {
        for reward in [1.0, 0.0, -2.0, 3.0] {
            agent.sample_into(&state, &mut action);
            agent.update(&state, &action, reward);
        }
    });
    assert_eq!(
        allocations, 0,
        "the training step must not touch the allocator"
    );
}

//! The allocation-free arrival: the template's route is resolved once
//! and shared, and a recycled slot refills the vectors it already owns.

use std::rc::Rc;

struct Flow {
    route: Rc<[u32]>,
    windows: Vec<(u64, u64)>,
}

struct Net {
    templates: Vec<Rc<[u32]>>,
    flows: Vec<Flow>,
}

impl Net {
    fn handle_churn_arrival(&mut self, slot: usize, route: usize, now: u64, stop: u64) {
        let flow = &mut self.flows[slot];
        flow.route = Rc::clone(&self.templates[route]);
        flow.windows.clear();
        flow.windows.push((now, stop));
    }

    fn retire(&mut self, slot: usize, free: &mut Vec<u32>) {
        self.flows[slot].windows.clear();
        free.push(slot as u32);
    }
}

//! Deliberate `hot-alloc` violations on the flow-churn path: an arrival
//! that copies its template's route data, which never changes, into
//! every flow it creates. (`hot_alloc_` prefix: a hot-path module.)

struct Template {
    path: Vec<u32>,
    hops: Vec<u32>,
}

struct Flow {
    path: Vec<u32>,
    hops: Vec<u32>,
    windows: Vec<(u64, u64)>,
}

struct Net {
    templates: Vec<Template>,
    flows: Vec<Flow>,
}

impl Net {
    fn handle_churn_arrival(&mut self, slot: usize, route: usize, now: u64, stop: u64) {
        let template = &self.templates[route];
        self.flows[slot] = Flow {
            path: template.path.clone(), // flagged: a route copy per arrival
            hops: template.hops.clone(), // flagged
            windows: vec![(now, stop)],  // flagged: a fresh Vec per arrival
        };
    }
}

"""Software 3D renderer substrate (replaces os-mesa + the NYC CAD model).

Math, meshes, octree spatial index, frustum culling with sort-first strip
sub-frusta, a numpy rasterizer, a procedural city scene and the
400-frame walkthrough camera path.
"""

from .camera import DEFAULT_FRAME_COUNT, Camera, WalkthroughPath
from .clipping import clip_triangle_near, clip_triangles_near
from .frustum import Frustum, frustum_planes, strip_view_proj, strip_window
from .io import image_diff, read_ppm, to_float, to_uint8, write_ppm
from .math3d import (
    look_at,
    normalize,
    perspective,
    project_points,
    rotation_y,
    transform_points,
    translation,
)
from .mesh3d import AABB, TriangleMesh, make_box
from .octree import Octree, OctreeNode, TraversalStats
from .raster import RasterStats, Viewport, rasterize
from .renderer import Renderer, RenderProfile
from .scene import CityConfig, build_city

__all__ = [
    "Camera",
    "WalkthroughPath",
    "DEFAULT_FRAME_COUNT",
    "Frustum",
    "frustum_planes",
    "strip_view_proj",
    "strip_window",
    "normalize",
    "look_at",
    "perspective",
    "translation",
    "rotation_y",
    "transform_points",
    "project_points",
    "AABB",
    "TriangleMesh",
    "make_box",
    "Octree",
    "OctreeNode",
    "TraversalStats",
    "Viewport",
    "RasterStats",
    "rasterize",
    "Renderer",
    "RenderProfile",
    "CityConfig",
    "build_city",
    "clip_triangle_near",
    "clip_triangles_near",
    "write_ppm",
    "read_ppm",
    "image_diff",
    "to_uint8",
    "to_float",
]
